package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// histBounds are the fixed bucket upper bounds (seconds) every Histogram
// uses: log-spaced, doubling from 100µs to ~105s (21 bounds), plus an
// implicit +Inf bucket. One shared ladder keeps Observe branch-free of
// configuration, makes histograms from different processes mergeable
// bucket-for-bucket, and spans everything the service measures — a
// sub-millisecond SSE fanout write to a multi-minute placement job.
var histBounds = func() []float64 {
	b := make([]float64, 21)
	v := 1e-4
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket latency distribution. Observe is lock-free
// (one atomic add into a bucket, one into the count, a CAS loop on the
// sum) and, like every obs instrument, nil-safe: a nil *Histogram accepts
// the full method set as a no-op.
type Histogram struct {
	name    string
	counts  []atomic.Uint64 // len(histBounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(name string) *Histogram {
	return &Histogram{name: name, counts: make([]atomic.Uint64, len(histBounds)+1)}
}

// Observe records one measurement in seconds. Negative and NaN values are
// clamped into the first bucket (they indicate a measurement bug, not a
// latency, but dropping them would skew _count against _sum).
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if math.IsNaN(seconds) || seconds < 0 {
		seconds = 0
	}
	i := 0
	for i < len(histBounds) && seconds > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t.
func (h *Histogram) ObserveSince(t time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t).Seconds())
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram's current state. Safe to call
// concurrently with Observe; the per-bucket counts are read individually,
// so Count is recomputed from them to stay internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		snap.Counts[i] = c
		snap.Count += c
	}
	snap.Sum = math.Float64frombits(h.sumBits.Load())
	return snap
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// counts (aligned with histBounds, last entry +Inf), their total and
// the running sum of observed seconds.
type HistogramSnapshot struct {
	Counts []uint64 `json:"counts,omitempty"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
}

// Delta returns the observations recorded after prev was taken — the
// windowed view SLO evaluation runs on. A prev from a different (or
// reset) histogram yields counts clamped at zero.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Counts: make([]uint64, len(s.Counts))}
	for i, c := range s.Counts {
		var p uint64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		if c > p {
			out.Counts[i] = c - p
		}
		out.Count += out.Counts[i]
	}
	if s.Sum > prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	return out
}

// Mean returns Sum/Count, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in seconds by linear
// interpolation inside the bucket holding the target rank — the same
// estimate Prometheus's histogram_quantile computes. Observations in the
// +Inf bucket are attributed to the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(histBounds) { // +Inf bucket
			return histBounds[len(histBounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = histBounds[i-1]
		}
		upper := histBounds[i]
		frac := (rank - (cum - float64(c))) / float64(c)
		return lower + (upper-lower)*frac
	}
	return histBounds[len(histBounds)-1]
}
