package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsSafe drives the full API surface through nil receivers:
// every call must be a no-op, not a panic.
func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	sp := rec.StartSpan("x")
	sp.SetArg("k", 1)
	child := sp.Child("y")
	child.End()
	sp.Fork("z").End()
	sp.End()
	rec.Counter("c").Inc()
	rec.Counter("c").Add(5)
	if got := rec.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	rec.Gauge("g").Set(3)
	if got := rec.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %v", got)
	}
	s := rec.Series("s")
	s.Observe(1, 2)
	if s.Len() != 0 || s.Samples() != nil {
		t.Fatal("nil series retained samples")
	}
	if rec.Tracer().Len() != 0 {
		t.Fatal("nil tracer has events")
	}
	var reg *Registry
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); snap.Counters != nil || snap.Series != nil {
		t.Fatal("nil registry snapshot not empty")
	}

	// Context plumbing with everything disabled must not allocate or wrap.
	ctx := context.Background()
	sp2, ctx2 := Start(ctx, nil, "run")
	if sp2 != nil || ctx2 != ctx {
		t.Fatal("disabled Start changed the context")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context")
	}
}

func TestSpanHierarchyAndChromeExport(t *testing.T) {
	tr := NewTracer()
	rec := NewRecorder(tr, nil)

	run, ctx := Start(context.Background(), rec, "run")
	stage, ctx := Start(ctx, rec, "stage:place")
	if FromContext(ctx) != stage {
		t.Fatal("context does not carry the stage span")
	}
	opt := stage.Child("padding.optimize")
	opt.SetArg("call", 1)
	sh0 := opt.Fork("cong.shard")
	sh1 := opt.Fork("cong.shard")
	if sh0.tid == sh1.tid || sh0.tid == opt.tid {
		t.Fatalf("forked spans share a tid: %d %d %d", sh0.tid, sh1.tid, opt.tid)
	}
	if opt.tid != stage.tid || stage.tid != run.tid {
		t.Fatal("child spans should stay on the parent's tid")
	}
	sh0.End()
	sh1.End()
	opt.End()
	stage.End()
	run.End()
	if tr.Len() != 5 {
		t.Fatalf("committed %d spans, want 5", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must be valid JSON in the Chrome trace-event container
	// shape Perfetto loads: traceEvents[] of ph="X" events with pid/tid/
	// ts/dur.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 || doc.Unit != "ms" {
		t.Fatalf("bad container: %d events, unit %q", len(doc.TraceEvents), doc.Unit)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" || ev["cat"] != "puffer" {
			t.Fatalf("bad event %v", ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", ev)
		}
		if _, ok := ev["dur"].(float64); !ok {
			t.Fatalf("event missing numeric dur: %v", ev)
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"run", "stage:place", "padding.optimize", "cong.shard"} {
		if !names[want] {
			t.Fatalf("export missing span %q", want)
		}
	}
	// The file form round-trips too.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryInstrumentsAndSnapshot(t *testing.T) {
	var sink bytes.Buffer
	reg := NewRegistry(NewJSONLSink(&sink))
	rec := NewRecorder(nil, reg)

	c := rec.Counter("route.segments")
	c.Add(41)
	c.Inc()
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	if rec.Counter("route.segments") != c {
		t.Fatal("counter not memoized")
	}
	g := rec.Gauge("coord.cache_hit_rate")
	g.Set(0.93)
	s := rec.Series("place.hpwl")
	for i := 1; i <= 3; i++ {
		s.Observe(i, float64(100*i))
	}
	if s.Len() != 3 {
		t.Fatalf("series len = %d", s.Len())
	}

	snap := reg.Snapshot()
	if snap.Counters["route.segments"] != 42 || snap.Gauges["coord.cache_hit_rate"] != 0.93 {
		t.Fatalf("snapshot %+v", snap)
	}
	if got := snap.Series["place.hpwl"]; !reflect.DeepEqual(got, []Sample{{1, 100}, {2, 200}, {3, 300}}) {
		t.Fatalf("snapshot series %+v", got)
	}
	// The sink saw every observation in order.
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"series":"place.hpwl","step":1,"value":100}
{"series":"place.hpwl","step":2,"value":200}
{"series":"place.hpwl","step":3,"value":300}
`
	if sink.String() != want {
		t.Fatalf("sink saw:\n%s", sink.String())
	}
}

func TestSeriesConcurrentObserve(t *testing.T) {
	reg := NewRegistry(NewJSONLSink(io.Discard))
	s := reg.Series("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Observe(i, float64(w))
				reg.Counter("n").Inc()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 || reg.Counter("n").Value() != 800 {
		t.Fatalf("len=%d n=%d", s.Len(), reg.Counter("n").Value())
	}
}

func TestJSONLSink(t *testing.T) {
	var jbuf bytes.Buffer
	reg := NewRegistry(NewJSONLSink(&jbuf))
	reg.Series("a.b").Observe(7, 1.5)
	reg.Series("a.b").Observe(8, -2)
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"series":"a.b","step":7,"value":1.5}` + "\n" + `{"series":"a.b","step":8,"value":-2}` + "\n"
	if jbuf.String() != wantJSON {
		t.Fatalf("jsonl:\n%s", jbuf.String())
	}
	// Each JSONL line parses back.
	for _, line := range strings.Split(strings.TrimSpace(jbuf.String()), "\n") {
		var v struct {
			Series string  `json:"series"`
			Step   int     `json:"step"`
			Value  float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("padding.calls").Add(3)
	reg.Gauge("coord.cache_hit_rate").Set(0.5)
	reg.Series("place.hpwl").Observe(9, 1234)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE padding_calls counter\npadding_calls 3\n",
		"# TYPE coord_cache_hit_rate gauge\ncoord_cache_hit_rate 0.5\n",
		"place_hpwl_last 1234\n",
		"place_hpwl_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRunReportRoundTrip checks the part of a run report that this package
// owns: the registry snapshot stored as the report's "metrics" section.
// Written, read back and written again, it must keep every instrument and
// reproduce the identical document (the round trip puffer diag relies on).
func TestRunReportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Series("place.hpwl").Observe(1, 10)
	reg.Series("place.hpwl").Observe(2, 9)
	reg.Counter("padding.calls").Add(2)
	reg.Gauge("place.overflow").Set(0.07)
	reg.Histogram("serve.job_seconds").Observe(0.25)
	snap := reg.Snapshot()

	save := func(path string, s Snapshot) {
		t.Helper()
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, path, string(data)+"\n")
	}
	load := func(path string) Snapshot {
		t.Helper()
		b, _ := readFile(t, path)
		var s Snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	save(path, snap)
	got := load(path)
	if !reflect.DeepEqual(got.Series["place.hpwl"], []Sample{{1, 10}, {2, 9}}) {
		t.Fatalf("series lost: %+v", got.Series)
	}
	if got.Counters["padding.calls"] != 2 || got.Gauges["place.overflow"] != 0.07 {
		t.Fatalf("counters/gauges lost: %+v %+v", got.Counters, got.Gauges)
	}
	if h := got.Histograms["serve.job_seconds"]; h.Count != 1 || h.Sum != 0.25 {
		t.Fatalf("histogram lost: %+v", h)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip changed the snapshot:\n%+v\n----\n%+v", got, snap)
	}

	path2 := filepath.Join(dir, "metrics2.json")
	save(path2, got)
	b1, _ := readFile(t, path)
	b2, _ := readFile(t, path2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-saved snapshot differs:\n%s\n----\n%s", b1, b2)
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("route.segments").Add(5)
	reg.Gauge("explore.best_score").Set(1.25)
	mux := NewDebugMux(reg)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "route_segments 5") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, `"memstats"`) {
		t.Fatalf("/debug/vars missing the runtime's memstats:\n%s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatal("/debug/pprof/ index incomplete")
	}
	if cmdline := get("/debug/pprof/cmdline"); !strings.Contains(cmdline, "obs.test") {
		t.Fatalf("/debug/pprof/cmdline: %q", cmdline)
	}
	if sym := get("/debug/pprof/symbol"); !strings.HasPrefix(sym, "num_symbols:") {
		t.Fatalf("/debug/pprof/symbol: %q", sym)
	}
	if root := get("/"); !strings.Contains(root, "puffer debug endpoint") {
		t.Fatalf("root page: %q", root)
	}

	// The recording endpoints sleep out their window unless the request
	// ends first; an already-canceled one gets the profile at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for path, magic := range map[string]string{
		"/debug/pprof/profile": "\x1f\x8b", // gzipped profile.proto
		"/debug/pprof/trace":   "go 1.",    // runtime trace header
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), magic) {
			t.Fatalf("%s: status %d, body starts %q", path, rec.Code, rec.Body.String()[:min(rec.Body.Len(), 16)])
		}
	}
}

func readFile(t *testing.T, path string) ([]byte, error) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b, nil
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
