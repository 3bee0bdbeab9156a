package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"puffer/internal/obs"
)

// These self-tests run no workload: they pin the harness's own arithmetic
// and keep its catalog and BENCHMARK.json in step.

func TestTailPercentile(t *testing.T) {
	// "the highest percentile with at least ten samples beyond it"
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {3, 50}, {39, 50},
		{40, 75}, {49, 75}, // 40 - ceil(0.75*40)=10 beyond
		{50, 80}, {60, 80}, // the issue's 60 deltas: p80 leaves 12
		{100, 90}, {199, 90},
		{200, 95}, {240, 95}, // the issue's 240 jobs: p95 leaves 12
		{1000, 99},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 {
			rank := int(math.Ceil(got / 100 * float64(c.n)))
			if c.n-rank < minBeyond {
				t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", c.n, got, c.n-rank)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(v, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(v, 80); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := percentile(v, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 2 = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestFoldSpansSelfTimeAndCoverage(t *testing.T) {
	spans := []spanRec{
		{ID: "r", Name: "run", DurUS: 100},
		{ID: "a", Parent: "r", Name: "stage.place", DurUS: 60},
		{ID: "b", Parent: "r", Name: "stage.legalize", DurUS: 30},
		{ID: "g", Parent: "a", Name: "place.gp", DurUS: 50},
		{ID: "i1", Parent: "g", Name: "gp.iter", DurUS: 20},
		{ID: "i2", Parent: "g", Name: "gp.iter", DurUS: 30},
		{ID: "p", Parent: "i2", Name: "padding.run", DurUS: 12},
		// a child longer than its parent must not drive self time negative
		{ID: "x", Name: "odd", DurUS: 5},
		{ID: "y", Parent: "x", Name: "odd.child", DurUS: 9},
	}
	f := foldSpans(spans)
	check := func(name string, count int, total, self float64) {
		t.Helper()
		got := f[name]
		if got == nil || got.Count != count || got.TotalUS != total || got.SelfUS != self {
			t.Errorf("%s = %+v, want count %d total %v self %v", name, got, count, total, self)
		}
	}
	check("run", 1, 100, 10)
	check("stage.place", 1, 60, 10)
	check("place.gp", 1, 50, 0)
	check("gp.iter", 2, 50, 38)
	check("padding.run", 1, 12, 12)
	check("odd", 1, 5, 0)
	if got := coverage(f, "run"); got != 0.9 {
		t.Errorf("coverage(run) = %v, want 0.9", got)
	}
	if got := coverage(f, "place.gp"); got != 1 {
		t.Errorf("coverage(place.gp) = %v, want 1", got)
	}
	if got := coverage(f, "absent"); got != 0 {
		t.Errorf("coverage(absent) = %v, want 0", got)
	}
}

func TestExportSpansRoundTrip(t *testing.T) {
	tr := obs.NewTracer()
	root := tr.StartSpan("run")
	child := root.Child("stage.place")
	child.Child("place.gp").End()
	child.End()
	root.End()
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	spans, err := exportSpans(tr, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	byName := map[string]spanRec{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if len(spans) != 3 || byName["stage.place"].Parent != byName["run"].ID ||
		byName["place.gp"].Parent != byName["stage.place"].ID || byName["run"].Parent != "" {
		t.Errorf("span tree not preserved: %+v", spans)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not of the allowed form", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		use("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		use("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("%s: per-layer names are <module>.<metric>", m.Name)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not of the allowed form", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json as the harness expects it.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is BENCHMARK.json's run_seconds: the --seconds the driver passes.
const runSeconds = 20

// TestBenchmarkJSONMatchesCatalog checks the root BENCHMARK.json against the
// harness catalog, both ways. UPDATE_BENCHMARK_JSON=1 rewrites the file from
// the catalog first.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		want, err := json.MarshalIndent(benchmarkJSON{
			Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
			Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(want, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[key]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", key)
		}
		delete(top, key)
	}
	for key := range top {
		t.Errorf("BENCHMARK.json has unexpected key %q", key)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if len(b.Command) != 2 || b.Command[0] != "bash" || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v, want [bash benchmark/run.sh]", b.Command)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", b.RunSeconds, runSeconds)
	}
	if budget := (4 + 22*len(b.Workloads)) * b.RunSeconds; budget > 3420 {
		t.Errorf("%d runs of %d s cannot fit 3420 s", 4+22*len(b.Workloads), b.RunSeconds)
	}
	// Both ways: everything named is in the harness catalog with the same
	// unit, direction and bound, and nothing the harness emits is unnamed.
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads named, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness %+v", i, w, workloads[i])
		}
	}
	same := func(kind string, named, have []metricDef) {
		if len(named) != len(have) {
			t.Errorf("%d %s metrics named, harness has %d", len(named), kind, len(have))
		}
		for i, m := range named {
			if i < len(have) && m != have[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness %+v", kind, i, m, have[i])
			}
		}
	}
	same("end-to-end", b.EndToEnd, endToEnd)
	same("per-layer", b.PerLayer, perLayer)
}

func TestCheckCatalogFlagsMissingAndUnnamed(t *testing.T) {
	r := newRunResult(wlEcoChain, 1, 20, false)
	for _, m := range endToEnd {
		r.set(m.Name, 1)
	}
	r.checkCatalog()
	if r.OpsFail != 0 {
		t.Fatalf("complete result flagged: %v", r.Failures)
	}
	delete(r.Metrics, "hpwl")
	r.set("made.up", 1)
	r.set("place_s", 0)
	r.set("route_s", math.NaN())
	r.checkCatalog()
	if r.OpsFail != 4 {
		t.Errorf("want 4 failures (missing, unnamed, zero, NaN), got %d: %v", r.OpsFail, r.Failures)
	}
	// per-layer values may be zero
	tr := newRunResult(wlEcoChain, 1, 20, true)
	for _, m := range perLayer {
		tr.set(m.Name, 0)
	}
	tr.checkCatalog()
	if tr.OpsFail != 0 {
		t.Errorf("zero per-layer values flagged: %v", tr.Failures)
	}
}

func TestDriverLine(t *testing.T) {
	r := newRunResult(wlEcoChain, 1, 20, false)
	for _, m := range endToEnd {
		r.set(m.Name, 1.25)
	}
	r.OpsTotal = 41
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(r)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 41 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("driver line = %+v", got)
	}
	if m := got.Metrics["setup_s"]; m.Value != 1.25 || m.Unit != "s" {
		t.Errorf("setup_s = %+v", m)
	}
	r.fail(os.ErrInvalid)
	if strings.Contains(driverLine(r), `"correct":true`) {
		t.Error("a failed run must not report correct")
	}
}

func sideOf(workload string, metric string, values ...float64) sideSamples {
	f := &resultFile{}
	for _, v := range values {
		r := newRunResult(workload, 1, 20, false)
		for _, m := range endToEnd {
			r.set(m.Name, 1)
		}
		r.set(metric, v)
		r.OpsTotal = 10
		f.Runs = append(f.Runs, r)
	}
	return gather(f)
}

func TestJudge(t *testing.T) {
	lowerM := metricDef{Name: "place_s", Better: lower, Bound: 0.10}
	higherM := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name     string
		m        metricDef
		old, new []float64
		want     verdict
	}{
		{"unchanged", lowerM, steady, steady, verdictOK},
		{"slower within bound", lowerM, steady, []float64{10.9, 10.8, 10.9}, verdictOK},
		{"slower beyond bound", lowerM, steady, []float64{11.2, 11.3, 11.1}, verdictRegression},
		{"faster", lowerM, steady, []float64{5, 5, 5}, verdictOK},
		{"throughput drop", higherM, steady, []float64{8.8, 8.9, 8.7}, verdictRegression},
		{"throughput gain", higherM, steady, []float64{20, 20, 20}, verdictOK},
		{"noisy baseline", lowerM, []float64{8, 10, 12, 9, 11}, []float64{20, 20, 20}, verdictUnresolved},
		{"single samples", lowerM, []float64{10}, []float64{11.5}, verdictRegression},
		{"missing", lowerM, steady, nil, verdictMissing},
	}
	for _, c := range cases {
		if got := judge(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSides(t *testing.T) {
	var out bytes.Buffer
	m, _ := metricByName(endToEnd, "place_s")
	old := sideOf(wlEcoChain, "place_s", 10, 10.1, 9.9)
	inside, beyond := 10*(1+m.Bound/2), 10*(1+2*m.Bound)
	if compareSides(&out, old, sideOf(wlEcoChain, "place_s", inside, inside+0.1, inside-0.1)) {
		t.Errorf("slowdown of half the bound reported as bad:\n%s", out.String())
	}
	out.Reset()
	if !compareSides(&out, old, sideOf(wlEcoChain, "place_s", beyond, beyond+0.1, beyond-0.1)) || !strings.Contains(out.String(), string(verdictRegression)) {
		t.Errorf("slowdown of twice the bound not reported:\n%s", out.String())
	}
	// a larger failed share is a regression even with identical timings
	out.Reset()
	worse := sideOf(wlEcoChain, "place_s", 10, 10.1, 9.9)
	worse.failed[wlEcoChain] = 2
	if !compareSides(&out, old, worse) || !strings.Contains(out.String(), "ops_failed") {
		t.Errorf("grown failure share not reported:\n%s", out.String())
	}
}

func TestDeltaGenIsSeededAndValid(t *testing.T) {
	d, err := designServeProfile.generate(7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newDeltaGen(d, 3), newDeltaGen(d, 3)
	for i := 1; i <= 10; i++ {
		da, db := a.next(d), b.next(d)
		ja, _ := json.Marshal(da)
		jb, _ := json.Marshal(db)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("delta %d differs between two generators of one seed", i)
		}
		if err := da.Validate(d); err != nil {
			t.Fatalf("delta %d invalid: %v", i, err)
		}
		if (i%10 == 0) != (len(da.Padding) > 0) {
			t.Errorf("delta %d: padding overrides = %d", i, len(da.Padding))
		}
	}
	if c, _ := json.Marshal(newDeltaGen(d, 4).next(d)); bytes.Equal(c, mustJSON(newDeltaGen(d, 3).next(d))) {
		t.Error("different seeds gave the same first delta")
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
