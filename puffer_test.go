package puffer

import (
	"strings"
	"testing"

	"puffer/internal/netlist"
	"puffer/internal/place"
	"puffer/internal/synth"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Place.MaxIters = 250
	cfg.Place.StopOverflow = 0.09
	return cfg
}

func stressedDesign(t *testing.T) *netlist.Design {
	t.Helper()
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		t.Fatal(err)
	}
	return synth.Generate(p, 3000, 1)
}

func TestFullFlow(t *testing.T) {
	d := stressedDesign(t)
	res, err := Run(d, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.GP.Iters == 0 {
		t.Error("no GP iterations")
	}
	if len(res.PaddingRuns) == 0 {
		t.Error("routability optimizer never triggered on a stressed design")
	}
	if res.HPWL <= 0 {
		t.Error("zero HPWL")
	}
	if res.Runtime <= 0 {
		t.Error("zero runtime")
	}
	// Flow trace covers the three Fig. 2 stages.
	joined := strings.Join(res.StageLog, "\n")
	for _, stage := range []string{"global placement", "routability optimizer", "legalization"} {
		if !strings.Contains(joined, stage) {
			t.Errorf("stage log missing %q", stage)
		}
	}
	// Legalized result: row-aligned, in region.
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		ry := (c.Y - d.Region.Lo.Y) / d.RowHeight
		if ry != float64(int(ry)) {
			t.Fatalf("cell %d not row aligned", i)
		}
		if c.X < d.Region.Lo.X-1e-6 || c.X+c.W > d.Region.Hi.X+1e-6 {
			t.Fatalf("cell %d outside region", i)
		}
	}
}

func TestEvaluateAfterFlow(t *testing.T) {
	d := stressedDesign(t)
	if _, err := Run(d, quickConfig()); err != nil {
		t.Fatal(err)
	}
	rcfg := EvalConfig()
	rcfg.GridW, rcfg.GridH = 48, 48
	rr := Evaluate(d, rcfg)
	if rr.Segments == 0 || rr.WL <= 0 {
		t.Fatalf("router produced nothing: %+v", rr)
	}
	if rr.HOF < 0 || rr.VOF < 0 {
		t.Error("negative overflow ratios")
	}
}

func TestPaddingImprovesRoutabilityOverNoPadding(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative run in -short mode")
	}
	run := func(withPadding bool) (hof, vof float64) {
		d := stressedDesign(t)
		cfg := quickConfig()
		if !withPadding {
			cfg.Strategy.MaxIters = 0 // optimizer never triggers
			cfg.Strategy.Theta = 0    // legalization inherits nothing
		}
		if _, err := Run(d, cfg); err != nil {
			t.Fatal(err)
		}
		rcfg := EvalConfig()
		rcfg.GridW, rcfg.GridH = 48, 48
		rr := Evaluate(d, rcfg)
		return rr.HOF, rr.VOF
	}
	hofP, vofP := run(true)
	hofN, vofN := run(false)
	// Allow sub-point noise at this tiny scale; the guard is against the
	// padding machinery actively hurting congestion.
	if hofP+vofP > hofN+vofN+0.5 {
		t.Errorf("padding worsened congestion: with=%.3f/%.3f without=%.3f/%.3f",
			hofP, vofP, hofN, vofN)
	}
}

func TestRunRejectsInvalidDesign(t *testing.T) {
	d := stressedDesign(t)
	d.Pins[0].Net = 10_000
	if _, err := Run(d, quickConfig()); err == nil {
		t.Error("invalid design accepted")
	}
}

func TestCongGridFor(t *testing.T) {
	d := stressedDesign(t)
	w, h := CongGridFor(d)
	if w < 16 || h < 16 || w > 512 || h > 512 {
		t.Errorf("grid %dx%d out of range", w, h)
	}
}

func TestDefaultConfigComplete(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Place.MaxIters == 0 || cfg.Strategy.MaxIters == 0 || cfg.DP.Passes == 0 {
		t.Error("default config has zero fields")
	}
	_ = place.DefaultConfig()
}
