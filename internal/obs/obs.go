// Package obs is the unified telemetry layer of the PUFFER flow:
// hierarchical trace spans (run → stage → optimizer call → shard) with
// Chrome trace-event export, a metrics registry of counters, gauges,
// histograms and per-iteration time series whose samples stream to a
// Sink (JSON lines on disk, or a job's event hub), a structured run-report
// artifact, and an optional live debug HTTP endpoint (pprof, the standard
// library's expvar, Prometheus text). DESIGN.md §3c holds the one catalog
// of metric names; the root package's TestMetricCensus checks it against
// every emit site.
//
// The package is built around one invariant: a disabled recorder costs
// nothing on the hot path. Every type is nil-safe — a nil *Recorder,
// *Tracer, *Span, *Registry, *Counter, *Gauge or *Series accepts its full
// method set as a no-op, without allocating. Engines therefore resolve
// their instruments once at setup time
//
//	sHPWL := cfg.Obs.Series("place.hpwl")   // nil recorder → nil series
//
// and call them unconditionally per iteration
//
//	sHPWL.Observe(iter, hpwl)               // nil series → a nil check
//
// so the per-iteration overhead of disabled telemetry is a handful of
// predictable branches: zero allocations, sub-nanosecond per call (see
// BenchmarkDisabledTelemetryPerIteration).
package obs

// Recorder bundles a Tracer and a metrics Registry. A nil *Recorder is the
// canonical "telemetry off" value: every method returns the matching nil
// instrument, whose methods are themselves no-ops.
type Recorder struct {
	trace   *Tracer
	metrics *Registry
}

// NewRecorder builds a recorder over the given tracer and registry; either
// may be nil to enable only half of the telemetry.
func NewRecorder(t *Tracer, m *Registry) *Recorder {
	return &Recorder{trace: t, metrics: m}
}

// Tracer returns the recorder's tracer (nil when tracing is off).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.trace
}

// Registry returns the recorder's metrics registry (nil when metrics are
// off).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.metrics
}

// StartSpan opens a root span on the recorder's tracer.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return r.trace.StartSpan(name)
}

// Counter resolves (creating on first use) the named counter.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.metrics.Counter(name)
}

// Gauge resolves (creating on first use) the named gauge.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.metrics.Gauge(name)
}

// Series resolves (creating on first use) the named time series.
func (r *Recorder) Series(name string) *Series {
	if r == nil {
		return nil
	}
	return r.metrics.Series(name)
}

// Histogram resolves (creating on first use) the named latency histogram.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.metrics.Histogram(name)
}
