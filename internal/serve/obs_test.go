package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"puffer/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the daemon logs from
// request handlers and workers concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSessionTelemetryLifecycle is the regression test for the session
// expvar leak: a session's per-session registry must be published while
// warm, unpublished on idle eviction, republished by the rehydrating
// delta, and unpublished again on close.
func TestSessionTelemetryLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSessionSpec()
	m := openSessionHTTP(t, ts, s, spec)
	key := "session-" + m.ID
	if !obs.ExpvarPublished(key) {
		t.Fatalf("open session %s not published to expvar", m.ID)
	}

	// Idle eviction must drop the warm state AND the telemetry.
	rt, ok := lookup(s, s.sessions, m.ID)
	if !ok {
		t.Fatal("no runtime for open session")
	}
	rt.mu.Lock()
	rt.lastUsed = time.Now().Add(-time.Hour)
	rt.mu.Unlock()
	s.evictIdleSessions(time.Minute)
	rt.mu.Lock()
	evicted := rt.sess == nil && rt.tel == nil
	rt.mu.Unlock()
	if !evicted {
		t.Fatal("eviction left warm state or telemetry behind")
	}
	if obs.ExpvarPublished(key) {
		t.Fatal("evicted session still published to expvar")
	}
	// The eviction spooled the base placement's span tree.
	if _, err := os.Stat(s.spool.sessions.dir(m.ID) + "/trace.json"); err != nil {
		t.Fatalf("evicted session has no trace artifact: %v", err)
	}

	// The rehydrating delta republishes fresh telemetry.
	status, dr := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 1))
	if status != http.StatusOK || !dr.Rehydrated {
		t.Fatalf("delta after eviction: status=%d rehydrated=%v", status, dr.Rehydrated)
	}
	if !obs.ExpvarPublished(key) {
		t.Fatal("rehydrated session not republished to expvar")
	}
	if s.hWarmDelta.Count() == 0 {
		t.Fatal("warm delta not observed in serve.session_warm_delta_seconds")
	}
	if s.hColdOpen.Count() == 0 {
		t.Fatal("cold open not observed in serve.session_cold_open_seconds")
	}

	// Close unpublishes and enrolls the session in hub retention.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+m.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	if obs.ExpvarPublished(key) {
		t.Fatal("closed session still published to expvar")
	}
	s.mu.Lock()
	retained := len(s.finishedSessions)
	s.mu.Unlock()
	if retained == 0 {
		t.Fatal("closed session not enrolled in retention")
	}
}

// TestReadyzAndOps covers the readiness/liveness split and the operational
// snapshot: /healthz stays 200 while draining, /readyz flips to 503, and
// /api/v1/ops reports the service histograms and SLO statuses.
func TestReadyzAndOps(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := enqueue(t, s, quickSpec())
	waitState(t, s, id, StateDone)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d", code)
	}
	code, body := get("/api/v1/ops")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/ops = %d", code)
	}
	var ops struct {
		Status     string                      `json:"status"`
		Histograms map[string]histogramSummary `json:"histograms"`
		SLO        []obs.ObjectiveStatus       `json:"slo"`
		SLOHealthy bool                        `json:"slo_healthy"`
	}
	if err := json.Unmarshal(body, &ops); err != nil {
		t.Fatalf("ops body: %v\n%s", err, body)
	}
	if ops.Status != "serving" || !ops.SLOHealthy {
		t.Fatalf("ops %+v", ops)
	}
	for _, name := range []string{"serve.http_request_seconds", "serve.queue_wait_seconds", "serve.job_wall_seconds"} {
		if ops.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty in ops snapshot: %+v", name, ops.Histograms[name])
		}
	}
	if len(ops.SLO) != 2 {
		t.Fatalf("SLO statuses %+v", ops.SLO)
	}

	// The daemon /metrics exposition carries the service histograms.
	_, metrics := get("/metrics")
	for _, want := range []string{
		`serve_http_request_seconds_bucket{le="+Inf"}`,
		"serve_queue_wait_seconds_count",
		"serve_job_wall_seconds_sum",
		"# TYPE serve_session_cold_open_seconds histogram",
		"# TYPE serve_session_warm_delta_seconds histogram",
		"# TYPE serve_sse_fanout_seconds histogram",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Draining: liveness holds, readiness fails with the reason.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.draining = false
		s.mu.Unlock()
	}()
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, liveness must hold", code)
	}
	code, body = get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d", code)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz body lacks reason: %s", body)
	}
}

// TestSubmitAdoptsTraceparent is the end-to-end propagation contract: a
// job submitted with a W3C traceparent produces a trace artifact whose
// every span carries the client's trace ID, with the serve.job span
// parented under the client's span and the queue wait and pipeline run
// nested beneath it.
func TestSubmitAdoptsTraceparent(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := obs.NewTracer()
	clientSpan := client.StartSpan("client.submit")
	tc := clientSpan.TraceContext()

	body, _ := json.Marshal(quickSpec())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.TraceParent != tc.Traceparent() {
		t.Fatalf("manifest traceparent %q, want %q", m.TraceParent, tc.Traceparent())
	}
	waitState(t, s, m.ID, StateDone)
	clientSpan.End()

	data, err := os.ReadFile(s.spool.JobDir(m.ID) + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if got := ev.Args["trace_id"]; got != tc.TraceID.String() {
			t.Fatalf("span %s trace_id %v, want %s", ev.Name, got, tc.TraceID)
		}
		spans[ev.Name] = ev.Args
	}
	job, ok := spans["serve.job"]
	if !ok {
		t.Fatalf("no serve.job span in %v", spans)
	}
	if job["parent_span_id"] != tc.SpanID.String() {
		t.Fatalf("serve.job parent %v, want client span %s", job["parent_span_id"], tc.SpanID)
	}
	jobID := job["span_id"]
	if spans["serve.queue_wait"]["parent_span_id"] != jobID {
		t.Fatal("queue wait not parented under serve.job")
	}
	if spans["run"]["parent_span_id"] != jobID {
		t.Fatal("pipeline run not parented under serve.job")
	}
	if spans["stage.place"]["parent_span_id"] != spans["run"]["span_id"] {
		t.Fatal("stage.place not parented under run")
	}
	if _, ok := spans["place.gp"]; !ok {
		t.Fatalf("no place.gp engine span among %d spans", len(spans))
	}

	// A malformed traceparent is ignored, not rejected: the job still runs
	// with a fresh trace.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(obs.TraceparentHeader, "garbage")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Manifest
	json.NewDecoder(resp2.Body).Decode(&m2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted || m2.TraceParent != "" {
		t.Fatalf("malformed traceparent: status=%d spooled=%q", resp2.StatusCode, m2.TraceParent)
	}
}

// TestStructuredRequestLog pins the serve log contract the e2e script
// greps: slog text lines with msg/job/session attrs, correlated with the
// incoming traceparent.
func TestStructuredRequestLog(t *testing.T) {
	var buf syncBuffer
	s := newTestServer(t, Config{Log: obs.NewLogger(&buf, slog.LevelInfo)})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := obs.NewTracer()
	sp := client.StartSpan("client.submit")
	tc := sp.TraceContext()
	body, _ := json.Marshal(quickSpec())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	waitState(t, s, m.ID, StateDone)
	sp.End()

	out := buf.String()
	for _, want := range []string{
		`msg="job queued" job=` + m.ID,
		"trace_id=" + tc.TraceID.String(),
		`msg="job running"`,
		`msg="job finished"`,
		"job=" + m.ID,
		`msg="http request"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q in:\n%s", want, out)
		}
	}
}
