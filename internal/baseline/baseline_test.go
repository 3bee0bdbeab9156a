package baseline

import (
	"context"
	"testing"

	"puffer/internal/netlist"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// quick builds a small stressed design.
func quick(t *testing.T) *netlist.Design {
	t.Helper()
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		t.Fatal(err)
	}
	return synth.Generate(p, 3000, 1)
}

// fastFlow is the named flow with a 400-iteration cap.
func fastFlow(t *testing.T, name string) (pipeline.Config, []pipeline.Stage) {
	t.Helper()
	cfg, stages, err := Flow(name, 400)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, stages
}

// runOn runs stages over d under cfg.
func runOn(t *testing.T, d *netlist.Design, cfg pipeline.Config, stages []pipeline.Stage) *pipeline.Result {
	t.Helper()
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.New(stages...).Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	return rc.Result
}

func checkPlaced(t *testing.T, d *netlist.Design) {
	t.Helper()
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		if !d.Region.ContainsClosed(c.Center()) {
			t.Fatalf("cell %d center outside region", i)
		}
		ry := (c.Y - d.Region.Lo.Y) / d.RowHeight
		if ry != float64(int(ry)) {
			t.Fatalf("cell %d not row aligned (y=%v)", i, c.Y)
		}
	}
}

func TestRunRePlAce(t *testing.T) {
	d := quick(t)
	cfg, stages := fastFlow(t, RePlAce)
	cfg.Place.StopOverflow = 0.09
	res := runOn(t, d, cfg, stages)
	checkPlaced(t, d)
	if res.HPWL <= 0 {
		t.Error("zero HPWL")
	}
	if len(res.PaddingRuns) == 0 {
		t.Error("inflation never triggered on a stressed design")
	}
	// RePlAce keeps inflation out of legalization, but the PadW bookkeeping
	// from GP remains recorded on the cells.
	if d.TotalPaddingArea() <= 0 {
		t.Error("no inflation recorded")
	}
	if res.Legal.PaddingSites != 0 {
		t.Errorf("legalization inherited %d padding sites", res.Legal.PaddingSites)
	}
}

func TestRunCommercial(t *testing.T) {
	d := quick(t)
	cfg, stages := fastFlow(t, Commercial)
	cfg.Place.StopOverflow = 0.08
	cfg.Place.MaxIters = 450
	res := runOn(t, d, cfg, stages)
	checkPlaced(t, d)
	if len(res.PaddingRuns) == 0 {
		t.Error("router-in-the-loop optimizer never fired")
	}
	for _, run := range res.PaddingRuns {
		if run.EstHOF == 0 && run.EstVOF == 0 {
			t.Errorf("round %d records no routed overflow", run.Iter)
		}
	}
	if res.HPWL <= 0 {
		t.Error("zero HPWL")
	}
}

func TestRePlAceInflationIsTruncated(t *testing.T) {
	// Cells in slack regions (negative congestion) must receive no
	// inflation: the baseline discards slack information by design.
	d := quick(t)
	cfg, stages := fastFlow(t, RePlAce)
	runOn(t, d, cfg, stages)
	for i := range d.Cells {
		if d.Cells[i].PadW < 0 {
			t.Fatalf("negative inflation on cell %d", i)
		}
	}
}

func TestRePlAceTotalCap(t *testing.T) {
	d := quick(t)
	cfg, _ := fastFlow(t, RePlAce)
	p := replaceInflation
	p.totalCap = 0.02
	p.gain = 10 // force the cap
	res := runOn(t, d, cfg, comparator(replaceRound(p)))
	if total := d.TotalPaddingArea(); total > 0.02*d.TotalMovableArea()+1e-6 {
		t.Errorf("inflation area %v exceeds cap", total)
	}
	if len(res.PaddingRuns) == 0 || !res.PaddingRuns[0].Scaled {
		t.Errorf("the cap never scaled a round: %+v", res.PaddingRuns)
	}
}

func TestFlowNames(t *testing.T) {
	for _, name := range []string{PUFFER, RePlAce, Commercial} {
		cfg, stages, err := Flow(name, 123)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Place.MaxIters != 123 {
			t.Errorf("%s: MaxIters %d, want the explicit cap 123", name, cfg.Place.MaxIters)
		}
		var names []string
		for _, st := range stages {
			names = append(names, st.Name())
		}
		if len(names) != 3 || names[0] != pipeline.StagePlace || names[1] != pipeline.StageLegal || names[2] != pipeline.StageDP {
			t.Errorf("%s: stages %v", name, names)
		}
	}
	if _, _, err := Flow("annealing", 0); err == nil {
		t.Error("unknown flow accepted")
	}
}
