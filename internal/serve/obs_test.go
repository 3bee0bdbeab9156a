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

// TestSessionTelemetryLifecycle walks a session's telemetry through idle
// eviction, the rehydrating delta and close: each step releases or
// reopens the per-session recorder, spools the span tree, and counts the
// transition on the daemon registry.
func TestSessionTelemetryLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSessionSpec()
	m := openSessionHTTP(t, ts, s, spec)
	trace := s.spool.JobDir(m.ID) + "/trace.json"
	_, ws := s.session(m.ID)
	telemetry := func() *runTelemetry {
		ws.mu.Lock()
		defer ws.mu.Unlock()
		return ws.tel
	}
	if telemetry() == nil {
		t.Fatalf("open session %s has no telemetry", m.ID)
	}

	// Idle eviction must drop the warm state AND the telemetry.
	ws.mu.Lock()
	ws.lastUsed = time.Now().Add(-time.Hour)
	ws.mu.Unlock()
	s.evictIdleSessions(time.Minute)
	ws.mu.Lock()
	evicted := ws.sess == nil && ws.tel == nil
	ws.mu.Unlock()
	if !evicted {
		t.Fatal("eviction left warm state or telemetry behind")
	}
	// The eviction spooled the base placement's span tree.
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("evicted session has no trace artifact: %v", err)
	}
	if err := os.Remove(trace); err != nil {
		t.Fatal(err)
	}

	// The rehydrating delta opens fresh telemetry.
	status, dr := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 1))
	if status != http.StatusOK || !dr.Rehydrated {
		t.Fatalf("delta after eviction: status=%d rehydrated=%v", status, dr.Rehydrated)
	}
	if telemetry() == nil {
		t.Fatal("rehydrated session has no telemetry")
	}
	if s.hWarmDelta.Count() == 0 {
		t.Fatal("warm delta not observed in serve.session_warm_delta_seconds")
	}
	if s.hColdOpen.Count() == 0 {
		t.Fatal("cold open not observed in serve.session_cold_open_seconds")
	}

	// Close releases the telemetry, spools the delta's span tree, and
	// enrolls the session in hub retention.
	cancelHTTP(t, ts, m.ID)
	if telemetry() != nil {
		t.Fatal("closed session kept its telemetry")
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("closed session has no trace artifact: %v", err)
	}
	for name, want := range map[string]int64{
		"serve.sessions_evicted": 1, "serve.sessions_rehydrated": 1, "serve.sessions_closed": 1,
	} {
		if got := s.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	s.mu.Lock()
	retained := len(s.finished)
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
	// runJob observes the job wall after the manifest waitState polls,
	// and counts the outcome after that.
	waitCount(t, s, "serve.jobs_completed", 1)

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

	var body []byte
	for _, spec := range []JobSpec{quickSpec(), quickSessionSpec()} {
		client := obs.NewTracer()
		clientSpan := client.StartSpan("client.submit")
		tc := clientSpan.TraceContext()

		body, _ = json.Marshal(spec)
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
			t.Fatalf("%s: manifest traceparent %q, want %q", spec.Kind, m.TraceParent, tc.Traceparent())
		}
		if spec.Kind == KindSession {
			// A session spools its span tree when its telemetry closes.
			waitState(t, s, m.ID, StateOpen)
			cancelHTTP(t, ts, m.ID)
		} else {
			waitState(t, s, m.ID, StateDone)
		}
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
				t.Fatalf("%s: span %s trace_id %v, want %s", spec.Kind, ev.Name, got, tc.TraceID)
			}
			spans[ev.Name] = ev.Args
		}
		job, ok := spans["serve.job"]
		if !ok {
			t.Fatalf("%s: no serve.job span in %v", spec.Kind, spans)
		}
		if job["parent_span_id"] != tc.SpanID.String() {
			t.Fatalf("%s: serve.job parent %v, want client span %s", spec.Kind, job["parent_span_id"], tc.SpanID)
		}
		jobID := job["span_id"]
		if spans["serve.queue_wait"]["parent_span_id"] != jobID {
			t.Fatalf("%s: queue wait not parented under serve.job", spec.Kind)
		}
		if spans["run"]["parent_span_id"] != jobID {
			t.Fatalf("%s: pipeline run not parented under serve.job", spec.Kind)
		}
		if spans["stage.place"]["parent_span_id"] != spans["run"]["span_id"] {
			t.Fatalf("%s: stage.place not parented under run", spec.Kind)
		}
		if _, ok := spans["place.gp"]; !ok {
			t.Fatalf("%s: no place.gp engine span among %d spans", spec.Kind, len(spans))
		}
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
// greps: slog text lines with msg/job attrs, correlated with the
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
	// runJob logs "job finished" after it finalizes the manifest waitState
	// polls.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(buf.String(), `msg="job finished"`) &&
		time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
	}

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
