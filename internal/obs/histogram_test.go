package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Quantile(0.5) != 0 {
		t.Fatalf("nil snapshot %+v", snap)
	}
	var rec *Recorder
	if rec.Histogram("x") != nil {
		t.Fatal("nil recorder handed out a histogram")
	}
	var reg *Registry
	if reg.Histogram("x") != nil {
		t.Fatal("nil registry handed out a histogram")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("serve.queue_wait_seconds")
	if reg.Histogram("serve.queue_wait_seconds") != h {
		t.Fatal("histogram not memoized")
	}
	// 100 observations at ~1ms, 10 at ~1s: p50 lands in the ms bucket,
	// p99 in the 1s region.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	snap := h.Snapshot()
	if snap.Count != 110 || h.Count() != 110 {
		t.Fatalf("count %d / %d", snap.Count, h.Count())
	}
	if got := snap.Sum; math.Abs(got-10.1) > 1e-9 {
		t.Fatalf("sum %v", got)
	}
	if p50 := snap.Quantile(0.50); p50 <= 0 || p50 > 0.005 {
		t.Fatalf("p50 %v, want ~1ms", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < 0.5 || p99 > 2.1 {
		t.Fatalf("p99 %v, want ~1s", p99)
	}
	if mean := snap.Mean(); math.Abs(mean-10.1/110) > 1e-9 {
		t.Fatalf("mean %v", mean)
	}

	// Quantiles never exceed the largest finite bound, even for +Inf
	// observations.
	h2 := reg.Histogram("huge")
	h2.Observe(1e6)
	bounds := HistogramBounds()
	if q := h2.Snapshot().Quantile(1); q != bounds[len(bounds)-1] {
		t.Fatalf("+Inf quantile %v", q)
	}

	// Negative and NaN clamp to the first bucket rather than vanishing.
	h3 := reg.Histogram("weird")
	h3.Observe(-5)
	h3.Observe(math.NaN())
	s3 := h3.Snapshot()
	if s3.Count != 2 || s3.Counts[0] != 2 {
		t.Fatalf("clamped observations %+v", s3)
	}
}

func TestHistogramDeltaWindow(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("w")
	h.Observe(0.01)
	h.Observe(0.01)
	before := h.Snapshot()
	h.Observe(3.0)
	win := h.Snapshot().Delta(before)
	if win.Count != 1 {
		t.Fatalf("window count %d", win.Count)
	}
	if q := win.Quantile(0.5); q < 2 || q > 7 {
		t.Fatalf("window quantile %v, want ~3s bucket", q)
	}
	if math.Abs(win.Sum-3.0) > 1e-9 {
		t.Fatalf("window sum %v", win.Sum)
	}
	// A stale/foreign prev clamps to zero instead of underflowing.
	var other HistogramSnapshot
	other.Counts = make([]uint64, len(before.Counts))
	other.Counts[0] = 1 << 40
	other.Sum = 1e12
	clamped := before.Delta(other)
	if clamped.Counts[0] != 0 || clamped.Sum != 0 {
		t.Fatalf("delta underflow %+v", clamped)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("c")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.002)
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != 8000 {
		t.Fatalf("count %d", snap.Count)
	}
	if math.Abs(snap.Sum-16.0) > 1e-6 {
		t.Fatalf("sum %v", snap.Sum)
	}
}

// TestWritePrometheusGolden locks the full exposition format — HELP/TYPE
// lines, name sanitization, histogram buckets — against a byte-exact
// golden string, so accidental format drift fails loudly.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("route.segments").Add(7)
	reg.Gauge("coord.cache_hit_rate").Set(0.25)
	reg.Series("place.hpwl").Observe(1, 50)
	h := reg.Histogram("serve.job_wall_seconds")
	h.Observe(0.00005) // first bucket
	h.Observe(0.0003)  // 0.0004 bucket
	h.Observe(200)     // +Inf bucket

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP route_segments puffer counter route.segments",
		"# TYPE route_segments counter",
		"route_segments 7",
		"# HELP coord_cache_hit_rate puffer gauge coord.cache_hit_rate",
		"# TYPE coord_cache_hit_rate gauge",
		"coord_cache_hit_rate 0.25",
		"# HELP place_hpwl_last puffer series place.hpwl (latest value)",
		"# TYPE place_hpwl_last gauge",
		"place_hpwl_last 50",
		"# HELP place_hpwl_count puffer series place.hpwl (sample count)",
		"# TYPE place_hpwl_count gauge",
		"place_hpwl_count 1",
		"# HELP serve_job_wall_seconds puffer histogram serve.job_wall_seconds (seconds)",
		"# TYPE serve_job_wall_seconds histogram",
		`serve_job_wall_seconds_bucket{le="0.0001"} 1`,
		`serve_job_wall_seconds_bucket{le="0.0002"} 1`,
		`serve_job_wall_seconds_bucket{le="0.0004"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0008"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0016"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0032"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0064"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0128"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0256"} 2`,
		`serve_job_wall_seconds_bucket{le="0.0512"} 2`,
		`serve_job_wall_seconds_bucket{le="0.1024"} 2`,
		`serve_job_wall_seconds_bucket{le="0.2048"} 2`,
		`serve_job_wall_seconds_bucket{le="0.4096"} 2`,
		`serve_job_wall_seconds_bucket{le="0.8192"} 2`,
		`serve_job_wall_seconds_bucket{le="1.6384"} 2`,
		`serve_job_wall_seconds_bucket{le="3.2768"} 2`,
		`serve_job_wall_seconds_bucket{le="6.5536"} 2`,
		`serve_job_wall_seconds_bucket{le="13.1072"} 2`,
		`serve_job_wall_seconds_bucket{le="26.2144"} 2`,
		`serve_job_wall_seconds_bucket{le="52.4288"} 2`,
		`serve_job_wall_seconds_bucket{le="104.8576"} 2`,
		`serve_job_wall_seconds_bucket{le="+Inf"} 3`,
		"serve_job_wall_seconds_sum 200.00035",
		"serve_job_wall_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition format drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
