package obs

import (
	"context"
	"io"
	"log/slog"
	"testing"
)

// BenchmarkDisabledTelemetryPerIteration measures the exact instrument
// sequence the placement engine runs once per Nesterov iteration, against
// a nil recorder — the telemetry-off configuration. The acceptance bar is
// 0 allocs/op and a per-iteration cost that is noise (a few ns) next to
// the engine's per-iteration milliseconds, i.e. far below the 2% budget.
func BenchmarkDisabledTelemetryPerIteration(b *testing.B) {
	var rec *Recorder
	// Instruments resolve to nil once at setup, exactly as the engine
	// caches them.
	sHPWL := rec.Series("place.hpwl")
	sOvf := rec.Series("place.overflow")
	sLambda := rec.Series("place.lambda")
	sGamma := rec.Series("place.gamma")
	sStep := rec.Series("place.step_len")
	cIters := rec.Counter("place.iters")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sHPWL.Observe(i, 1234.5)
		sOvf.Observe(i, 0.2)
		sLambda.Observe(i, 1e-3)
		sGamma.Observe(i, 80)
		sStep.Observe(i, 0.7)
		cIters.Inc()
	}
}

// BenchmarkDisabledSpanStart measures span creation through a nil
// recorder and the context fast path (no wrapping, no allocation).
func BenchmarkDisabledSpanStart(b *testing.B) {
	var rec *Recorder
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, _ := Start(ctx, rec, "stage")
		sp.End()
	}
}

// BenchmarkEnabledSeriesObserve is the reference cost of a live series
// observation (lock + append + no sinks).
func BenchmarkEnabledSeriesObserve(b *testing.B) {
	reg := NewRegistry()
	s := reg.Series("place.hpwl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(i, float64(i))
	}
}

// BenchmarkHistogramObserveDisabled measures Histogram.Observe through a
// nil recorder — the telemetry-off configuration must stay 0 allocs/op,
// same bar as the series/counter path.
func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var rec *Recorder
	h := rec.Histogram("serve.queue_wait_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0123)
	}
}

// BenchmarkHistogramObserveEnabled is the live cost of one histogram
// observation (bucket scan + three atomics); compare it against
// BenchmarkHistogramObserveDisabled.
func BenchmarkHistogramObserveEnabled(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("serve.queue_wait_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0123)
	}
}

// BenchmarkDisabledSlogLogAttrs measures a structured log call against
// NopLogger — the logging-off configuration on a hot path. The Enabled
// gate must reject the record before anything is built: 0 allocs/op.
func BenchmarkDisabledSlogLogAttrs(b *testing.B) {
	l := NopLogger()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.LogAttrs(ctx, slog.LevelInfo, "iteration", slog.Int("iter", i), slog.String("stage", "gp"))
	}
}

// BenchmarkEnabledSlogHandler is the reference cost of a live correlated
// log record (text handler to io.Discard, span + labels in context).
func BenchmarkEnabledSlogHandler(b *testing.B) {
	l := NewLogger(io.Discard, slog.LevelInfo)
	tr := NewTracer()
	sp, ctx := Start(context.Background(), NewRecorder(tr, nil), "bench")
	defer sp.End()
	ctx = ContextWithLabels(ctx, slog.String("job", "job-1"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.LogAttrs(ctx, slog.LevelInfo, "iteration", slog.Int("iter", i))
	}
}

// TestZeroAllocDisabledObsPaths enforces the 0 allocs/op invariant on the
// new disabled paths (histogram observe, slog through NopLogger) the same
// way CI's ZeroAlloc gate does for the engine hot loops.
func TestZeroAllocDisabledObsPaths(t *testing.T) {
	var rec *Recorder
	h := rec.Histogram("x")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.5) }); n != 0 {
		t.Fatalf("nil histogram Observe allocates %v/op", n)
	}
	l := NopLogger()
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		l.LogAttrs(ctx, slog.LevelInfo, "iteration", slog.Int("iter", 1), slog.String("stage", "gp"))
	}); n != 0 {
		t.Fatalf("NopLogger LogAttrs allocates %v/op", n)
	}
}
