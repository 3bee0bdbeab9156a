package place

import (
	"testing"

	"puffer/internal/obs"
)

func TestTraceRingEvictsOldestKeepsOrder(t *testing.T) {
	r := newTraceRing(8)
	for i := 1; i <= 20; i++ {
		r.add(IterStats{Iter: i})
	}
	items := r.items()
	if len(items) != 8 || r.dropped != 12 {
		t.Fatalf("len=%d dropped=%d", len(items), r.dropped)
	}
	for k, it := range items {
		if want := 13 + k; it.Iter != want {
			t.Fatalf("items[%d].Iter = %d, want %d (chronological, newest-retained)", k, it.Iter, want)
		}
	}
}

func TestTraceRingExactWrapBoundary(t *testing.T) {
	r := newTraceRing(5)
	for i := 1; i <= 10; i++ { // exactly two full cycles: next wraps to 0
		r.add(IterStats{Iter: i})
	}
	items := r.items()
	if len(items) != 5 {
		t.Fatalf("len=%d", len(items))
	}
	for k, it := range items {
		if want := 6 + k; it.Iter != want {
			t.Fatalf("items[%d].Iter = %d, want %d", k, it.Iter, want)
		}
	}
}

// TestRunTraceBounded checks a run shorter than DefaultTraceCap keeps its
// whole trajectory, in order, with nothing evicted (eviction order and the
// exact-wrap boundary are covered on the ring directly above).
func TestRunTraceBounded(t *testing.T) {
	d := smallDesign(1, 60, false)
	cfg := quickConfig()
	cfg.MaxIters = 50
	cfg.MinIters = 50
	cfg.StopOverflow = 0 // never converge early
	cfg.PlateauIters = 0
	res := mustNew(d, cfg).Run(nil)
	if res.Iters != 50 {
		t.Fatalf("iters = %d", res.Iters)
	}
	if len(res.Trace) != res.Iters || res.TraceDropped != 0 {
		t.Fatalf("trace len=%d dropped=%d, want %d and 0", len(res.Trace), res.TraceDropped, res.Iters)
	}
	for k, it := range res.Trace {
		if want := 1 + k; it.Iter != want {
			t.Fatalf("trace[%d].Iter = %d, want %d", k, it.Iter, want)
		}
	}
}

// TestRunRecordsSeries checks the per-iteration telemetry: one sample per
// engine iteration on every series, step-aligned with the trace.
func TestRunRecordsSeries(t *testing.T) {
	d := smallDesign(1, 60, false)
	reg := obs.NewRegistry()
	cfg := quickConfig()
	cfg.MaxIters = 30
	cfg.MinIters = 30
	cfg.StopOverflow = 0
	cfg.PlateauIters = 0
	cfg.Obs = obs.NewRecorder(nil, reg)
	res := mustNew(d, cfg).Run(nil)

	for _, name := range []string{"place.hpwl", "place.overflow", "place.lambda", "place.gamma", "place.step_len"} {
		s := reg.Series(name).Samples()
		if len(s) != res.Iters {
			t.Fatalf("series %s has %d samples, want %d", name, len(s), res.Iters)
		}
		if s[0].Step != 1 || s[len(s)-1].Step != res.Iters {
			t.Fatalf("series %s steps [%d..%d], want [1..%d]", name, s[0].Step, s[len(s)-1].Step, res.Iters)
		}
	}
	if got := reg.Counter("place.iters").Value(); got != int64(res.Iters) {
		t.Fatalf("place.iters counter = %d, want %d", got, res.Iters)
	}
	// Series values mirror the IterStats trace.
	hpwl := reg.Series("place.hpwl").Samples()
	for k, it := range res.Trace {
		if hpwl[k].Value != it.HPWL {
			t.Fatalf("hpwl sample %d = %v, trace says %v", k, hpwl[k].Value, it.HPWL)
		}
	}
}

// benchPlacer builds a fresh mid-size placer whose RunCtx executes
// exactly iters iterations (no early stop), for per-iteration costing.
func benchPlacer(iters int, rec *obs.Recorder) *Placer {
	d := smallDesign(1, 400, false)
	cfg := DefaultConfig()
	cfg.MaxIters = iters
	cfg.MinIters = iters
	cfg.StopOverflow = 0
	cfg.PlateauIters = 0
	cfg.Obs = rec
	return mustNew(d, cfg)
}

// BenchmarkPlaceIterObsDisabled is the place-iteration hot path with
// telemetry compiled in but disabled (nil recorder) — the default
// production configuration; compare it against
// BenchmarkPlaceIterObsEnabled. Each disabled instrument call is a nil
// check (see the 0-alloc proof in internal/obs
// BenchmarkDisabledTelemetryPerIteration). The repo benchmark reports the
// enabled cost on a whole run as trace.overhead_pct.
func BenchmarkPlaceIterObsDisabled(b *testing.B) {
	b.ReportAllocs()
	p := benchPlacer(b.N, nil)
	b.ResetTimer()
	p.Run(nil)
}

// BenchmarkPlaceIterObsEnabled is the same workload with a live recorder
// capturing all five per-iteration series.
func BenchmarkPlaceIterObsEnabled(b *testing.B) {
	b.ReportAllocs()
	rec := obs.NewRecorder(obs.NewTracer(), obs.NewRegistry())
	p := benchPlacer(b.N, rec)
	b.ResetTimer()
	p.Run(nil)
}
