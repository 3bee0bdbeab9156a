package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the metrics namespace of one run: counters (monotonic
// int64), gauges (last-value float64) and series (step-indexed float64
// samples). Instruments are created on first use and live for the
// registry's lifetime, so engines resolve them once and record locklessly
// (counters and gauges are atomics; series take a short per-series lock).
//
// A nil *Registry is valid and hands out nil instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	series     map[string]*Series
	histograms map[string]*Histogram
	sinks      []Sink
}

// NewRegistry builds an empty registry; every series sample is fanned out
// to the given sinks as it is observed.
func NewRegistry(sinks ...Sink) *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		series:     make(map[string]*Series),
		histograms: make(map[string]*Histogram),
		sinks:      sinks,
	}
}

// Counter is a monotonic event count. Nil-safe.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64. Nil-safe.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Sample is one series observation: a step index (iteration, optimizer
// call, trial — whatever the series' unit of progress is) and a value.
type Sample struct {
	Step  int     `json:"step"`
	Value float64 `json:"value"`
}

// Series is a step-indexed time series. Observations are retained
// in-memory (for the run report) and fanned out to the registry's sinks.
// Nil-safe.
type Series struct {
	name  string
	sinks []Sink

	mu      sync.Mutex
	samples []Sample
}

// Observe appends one sample.
func (s *Series) Observe(step int, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, Sample{Step: step, Value: v})
	s.mu.Unlock()
	for _, sink := range s.sinks {
		sink.Observe(s.name, Sample{Step: step, Value: v})
	}
}

// Len returns the number of samples observed so far.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Samples returns a copy of all observations.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Series returns the named series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{name: name, sinks: r.sinks}
		r.series[name] = s
	}
	return s
}

// Histogram returns the named latency histogram, creating it on first
// use. All histograms share the fixed log-spaced bucket ladder
// (histBounds).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(name)
		r.histograms[name] = h
	}
	return h
}

// Flush flushes every sink.
func (r *Registry) Flush() error {
	if r == nil {
		return nil
	}
	var first error
	for _, s := range r.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Snapshot is a point-in-time copy of a registry's contents, embedded in
// run reports and served on /api/v1/ops.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Series     map[string][]Sample          `json:"series,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry. Safe to call concurrently with recording.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	series := make(map[string]*Series, len(r.series))
	for k, v := range r.series {
		series[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			snap.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for k, g := range gauges {
			snap.Gauges[k] = g.Value()
		}
	}
	if len(series) > 0 {
		snap.Series = make(map[string][]Sample, len(series))
		for k, s := range series {
			snap.Series[k] = s.Samples()
		}
	}
	if len(histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(histograms))
		for k, h := range histograms {
			snap.Histograms[k] = h.Snapshot()
		}
	}
	return snap
}

// promName maps a dotted metric name to the Prometheus charset:
// characters outside [a-zA-Z0-9_:] become underscores.
func promName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				out[i] = '_'
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (0.0.4): counters as counters, gauges as gauges, each series'
// latest value as a gauge suffixed _last (with a _count companion), and
// histograms as native Prometheus histograms (cumulative _bucket{le=...}
// plus _sum and _count). Every family gets # HELP and # TYPE lines and a
// sanitized name (promName), so real scrapers parse the endpoint; output
// is sorted by name, so scrapes are diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var names []string
	for k := range snap.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# HELP %s puffer counter %s\n# TYPE %s counter\n%s %d\n",
			n, k, n, n, snap.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range snap.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# HELP %s puffer gauge %s\n# TYPE %s gauge\n%s %g\n",
			n, k, n, n, snap.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range snap.Series {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ss := snap.Series[k]
		n := promName(k)
		last := 0.0
		if len(ss) > 0 {
			last = ss[len(ss)-1].Value
		}
		if _, err := fmt.Fprintf(w, "# HELP %s_last puffer series %s (latest value)\n# TYPE %s_last gauge\n%s_last %g\n# HELP %s_count puffer series %s (sample count)\n# TYPE %s_count gauge\n%s_count %d\n",
			n, k, n, n, last, n, k, n, n, len(ss)); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range snap.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		hs := snap.Histograms[k]
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# HELP %s puffer histogram %s (seconds)\n# TYPE %s histogram\n", n, k, n); err != nil {
			return err
		}
		var cum uint64
		for i, c := range hs.Counts {
			cum += c
			le := "+Inf"
			if i < len(histBounds) {
				le = fmt.Sprintf("%g", histBounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", n, hs.Sum, n, hs.Count); err != nil {
			return err
		}
	}
	return nil
}
