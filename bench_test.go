// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus the ablation benches DESIGN.md lists.
// The benches run the same code paths as `puffer experiments` at a reduced
// scale and report the experiment's quality metrics through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// result (see EXPERIMENTS.md for the full-scale numbers).
package puffer_test

import (
	"math"
	"math/rand"
	"testing"

	"puffer"
	"puffer/internal/baseline"
	"puffer/internal/cong"
	"puffer/internal/experiments"
	"puffer/internal/netlist"
	"puffer/internal/router"
	"puffer/internal/synth"
)

// benchOptions keeps benchmark iterations affordable.
func benchOptions() experiments.Options {
	return experiments.Options{Scale: 6000, Seed: 1, PlaceIters: 250}
}

// BenchmarkTable1Stats regenerates Table I (benchmark statistics for all
// ten designs).
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchOptions())
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// table2Bench runs one (design, placer) cell of Table II per iteration and
// reports the routed quality metrics.
func table2Bench(b *testing.B, design string, placer experiments.PlacerName) {
	b.Helper()
	o := benchOptions()
	p, err := synth.ProfileByName(design)
	if err != nil {
		b.Fatal(err)
	}
	var hof, vof, wl float64
	for i := 0; i < b.N; i++ {
		d := synth.Generate(p, o.Scale, o.Seed)
		gw, gh := puffer.CongGridFor(d)
		switch placer {
		case experiments.PUFFER:
			cfg := puffer.DefaultConfig()
			cfg.Place.MaxIters = o.PlaceIters
			if _, err := puffer.Run(d, cfg); err != nil {
				b.Fatal(err)
			}
		case experiments.Commercial:
			opts := baseline.DefaultCommercialOpts()
			opts.Place.MaxIters = o.PlaceIters
			if _, err := baseline.RunCommercial(d, opts, gw, gh); err != nil {
				b.Fatal(err)
			}
		case experiments.RePlAce:
			opts := baseline.DefaultRePlAceOpts()
			opts.Place.MaxIters = o.PlaceIters
			if _, err := baseline.RunRePlAce(d, opts, gw, gh); err != nil {
				b.Fatal(err)
			}
		}
		rr := puffer.Evaluate(d, router.DefaultConfig())
		hof, vof, wl = rr.HOF, rr.VOF, rr.WL
	}
	b.ReportMetric(hof, "HOF%")
	b.ReportMetric(vof, "VOF%")
	b.ReportMetric(wl, "WL")
}

// Table II benches: the stressed design under all three placers, and the
// calm CT_TOP under PUFFER (full per-design sweeps run via
// puffer experiments -table2).
func BenchmarkTable2PUFFERMediaSubsys(b *testing.B) {
	table2Bench(b, "MEDIA_SUBSYS", experiments.PUFFER)
}

func BenchmarkTable2CommercialMediaSubsys(b *testing.B) {
	table2Bench(b, "MEDIA_SUBSYS", experiments.Commercial)
}

func BenchmarkTable2RePlAceMediaSubsys(b *testing.B) {
	table2Bench(b, "MEDIA_SUBSYS", experiments.RePlAce)
}

func BenchmarkTable2PUFFERCtTop(b *testing.B) {
	table2Bench(b, "CT_TOP", experiments.PUFFER)
}

// BenchmarkFig2Flow regenerates the algorithm-flow trace (Fig. 2).
func BenchmarkFig2Flow(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		out := experiments.Fig2(o)
		if len(out) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFig3Estimation regenerates the congestion-estimation demand
// maps (Fig. 3).
func BenchmarkFig3Estimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Fig3()
		if len(out) == 0 {
			b.Fatal("empty maps")
		}
	}
}

// BenchmarkFig4Features regenerates the feature-extraction illustration
// (Fig. 4).
func BenchmarkFig4Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Fig4()
		if len(out) == 0 {
			b.Fatal("empty features")
		}
	}
}

// BenchmarkFig5Maps regenerates the routed congestion maps for all three
// placers (Fig. 5).
func BenchmarkFig5Maps(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		maps, err := experiments.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(maps) != 3 {
			b.Fatalf("maps = %d", len(maps))
		}
	}
}

// ablationBench runs one mechanism ablation per iteration and reports the
// on/off quality metrics.
func ablationBench(b *testing.B, fn func(experiments.Options) (experiments.AblationResult, error)) {
	b.Helper()
	o := benchOptions()
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = fn(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MetricOn, "ovf_on%")
	b.ReportMetric(r.MetricOff, "ovf_off%")
}

// BenchmarkAblationFeatures: multi-feature vs local-only padding
// (Sec. III-B1 claim).
func BenchmarkAblationFeatures(b *testing.B) {
	ablationBench(b, experiments.AblationFeatures)
}

// BenchmarkAblationExpansion: detour-imitating demand expansion on/off
// (Sec. III-A3 claim).
func BenchmarkAblationExpansion(b *testing.B) {
	ablationBench(b, experiments.AblationExpansion)
}

// BenchmarkAblationRecycling: padding recycling on/off (Eq. 15 claim).
func BenchmarkAblationRecycling(b *testing.B) {
	ablationBench(b, experiments.AblationRecycling)
}

// BenchmarkAblationLegalPadding: white-space-assisted legalization on/off
// (Sec. III-D claim).
func BenchmarkAblationLegalPadding(b *testing.B) {
	ablationBench(b, experiments.AblationLegalPadding)
}

// BenchmarkAblationTPE: TPE strategy exploration vs random search with the
// same budget (Sec. III-C claim).
func BenchmarkAblationTPE(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationTPE(int64(i + 1))
	}
	b.ReportMetric(r.MetricOn, "tpe_best")
	b.ReportMetric(r.MetricOff, "rand_best")
}

// nudgeCells displaces frac of the movable cells by up to two Gcells in
// each axis — the between-estimates churn of the placement loop, where
// most pins stay inside their Gcell.
func nudgeCells(rng *rand.Rand, d *netlist.Design, frac, dx, dy float64) {
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Fixed || rng.Float64() >= frac {
			continue
		}
		c.X = math.Min(d.Region.Hi.X-c.W, math.Max(d.Region.Lo.X, c.X+(rng.Float64()-0.5)*2*dx))
		c.Y = math.Min(d.Region.Hi.Y-c.H, math.Max(d.Region.Lo.Y, c.Y+(rng.Float64()-0.5)*2*dy))
	}
}

// BenchmarkEstimate measures repeated congestion estimation on one reused
// estimator with a small fraction of cells moving between calls.
func BenchmarkEstimate(b *testing.B) {
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		b.Fatal(err)
	}
	d := synth.Generate(p, 6000, 1)
	gw, gh := puffer.CongGridFor(d)
	e := cong.NewEstimator(d, gw, gh, cong.DefaultParams())
	e.Estimate() // size the buffers outside the timed loop
	rng := rand.New(rand.NewSource(2))
	dx := 2 * d.Region.W() / float64(gw)
	dy := 2 * d.Region.H() / float64(gh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nudgeCells(rng, d, 0.01, dx, dy)
		b.StartTimer()
		e.Estimate()
	}
}

// BenchmarkFullFlow measures the end-to-end PUFFER runtime on the largest
// profile at bench scale (the RT column of Table II).
func BenchmarkFullFlow(b *testing.B) {
	p, err := synth.ProfileByName("OPENC910")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := synth.Generate(p, 6000, 1)
		cfg := puffer.DefaultConfig()
		cfg.Place.MaxIters = 250
		if _, err := puffer.Run(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
