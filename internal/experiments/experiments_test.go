package experiments

import (
	"strings"
	"testing"
	"time"

	"puffer/pipeline"
)

// tinyOptions keeps experiment tests fast: ~100-cell designs.
func tinyOptions() Options {
	return Options{Scale: 12000, Seed: 1, PlaceIters: 150}
}

func TestTable1AllDesigns(t *testing.T) {
	rows := Table1(tinyOptions())
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Cells == 0 || r.Nets == 0 || r.Pins == 0 || r.Macros == 0 {
			t.Errorf("%s: degenerate row %+v", r.Name, r)
		}
		if r.PaperCells == 0 {
			t.Errorf("%s: paper reference missing", r.Name)
		}
	}
	text := FormatTable1(rows)
	for _, name := range []string{"OR1200", "OPENC910", "MEDIA_SUBSYS"} {
		if !strings.Contains(text, name) {
			t.Errorf("formatted table missing %s", name)
		}
	}
}

func TestTable2SingleDesign(t *testing.T) {
	o := tinyOptions()
	o.Designs = []string{"OR1200"}
	rows, sums, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per placer)", len(rows))
	}
	for _, r := range rows {
		if r.Final.WL <= 0 {
			t.Errorf("%s: zero WL", r.Flow)
		}
		if r.PlaceRuntime() <= 0 {
			t.Errorf("%s: zero RT", r.Flow)
		}
		if r.Final.HOF < 0 || r.Final.VOF < 0 {
			t.Errorf("%s: negative overflow", r.Flow)
		}
	}
	if len(sums) != 3 {
		t.Fatalf("summaries = %d, want 3", len(sums))
	}
	for _, s := range sums {
		if s.Placer == PUFFER {
			if s.WLNorm != 1.0 || s.RTNorm != 1.0 {
				t.Errorf("PUFFER normalization = %v/%v, want 1/1", s.WLNorm, s.RTNorm)
			}
		}
	}
	text := FormatTable2(rows, sums)
	for _, want := range []string{"Commercial_Inn", "RePlAce", "PUFFER", "Average", "Pass Count"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestSummarizePassCounts(t *testing.T) {
	cell := func(design string, placer PlacerName, hof, vof, wl float64, rt time.Duration) *pipeline.Record {
		return &pipeline.Record{Design: design, Flow: placer.Flow(), Final: pipeline.Final{
			RuntimeMS: float64(rt) / float64(time.Millisecond),
			Routed:    &pipeline.Routed{HOF: hof, VOF: vof, WL: wl},
		}}
	}
	rows := []*pipeline.Record{
		cell("a", PUFFER, 0.5, 2.0, 100, time.Second),
		cell("b", PUFFER, 1.0, 0.9, 100, time.Second),
		cell("a", RePlAce, 1.5, 0.5, 110, 2*time.Second),
		cell("b", RePlAce, 0.2, 0.2, 120, 2*time.Second),
	}
	sums := Summarize(rows)
	for _, s := range sums {
		switch s.Placer {
		case PUFFER:
			if s.PassCountHOF != 2 || s.PassCountVOF != 1 {
				t.Errorf("PUFFER pass counts = %d/%d, want 2/1", s.PassCountHOF, s.PassCountVOF)
			}
		case RePlAce:
			if s.PassCountHOF != 1 || s.PassCountVOF != 2 {
				t.Errorf("RePlAce pass counts = %d/%d, want 1/2", s.PassCountHOF, s.PassCountVOF)
			}
			if s.WLNorm != 1.15 {
				t.Errorf("RePlAce WLNorm = %v, want 1.15", s.WLNorm)
			}
			if s.RTNorm != 2 {
				t.Errorf("RePlAce RTNorm = %v, want 2", s.RTNorm)
			}
		}
	}
}

func TestSortRows(t *testing.T) {
	rows := []*pipeline.Record{
		{Design: "b", Flow: PUFFER.Flow()},
		{Design: "a", Flow: PUFFER.Flow()},
		{Design: "a", Flow: Commercial.Flow()},
	}
	SortRows(rows)
	if rows[0].Design != "a" || rows[0].Flow != Commercial.Flow() {
		t.Errorf("sort order wrong: %+v", rows)
	}
	if rows[1].Design != "a" || rows[1].Flow != PUFFER.Flow() {
		t.Errorf("sort order wrong: %+v", rows)
	}
}

func TestFig1(t *testing.T) {
	out := Fig1()
	if !strings.Contains(out, "grid graph") || !strings.Contains(out, "[H") {
		t.Errorf("Fig1 output malformed:\n%s", out)
	}
}

func TestFig2(t *testing.T) {
	out := Fig2(tinyOptions())
	for _, stage := range []string{"global placement", "legalization"} {
		if !strings.Contains(out, stage) {
			t.Errorf("Fig2 missing stage %q:\n%s", stage, out)
		}
	}
}

func TestFig3(t *testing.T) {
	out := Fig3()
	for _, part := range []string{"(a)", "(b)", "(c)"} {
		if !strings.Contains(out, part) {
			t.Errorf("Fig3 missing panel %s", part)
		}
	}
	// The expansion panel must differ from the base horizontal panel.
	segs := strings.Split(out, "(c)")
	if len(segs) != 2 {
		t.Fatal("cannot split Fig3 output")
	}
}

func TestFig4(t *testing.T) {
	out := Fig4()
	for _, f := range []string{"local_congestion", "surround_congestion", "pin_congestion", "CNN-inspired", "GNN-inspired"} {
		if !strings.Contains(out, f) {
			t.Errorf("Fig4 missing %q", f)
		}
	}
}

func TestFig5AndPGM(t *testing.T) {
	o := tinyOptions()
	maps, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 3 {
		t.Fatalf("maps = %d, want 3", len(maps))
	}
	for _, m := range maps {
		if len(m.H) != m.W*m.Ht || len(m.V) != m.W*m.Ht {
			t.Errorf("%s: map size mismatch", m.Placer)
		}
	}
	text := FormatFig5(maps)
	if !strings.Contains(text, "PUFFER") || !strings.Contains(text, "horizontal overflow") {
		t.Error("FormatFig5 output malformed")
	}
	path := t.TempDir() + "/h.pgm"
	if err := WritePGM(path, maps[0].H, maps[0].W, maps[0].Ht); err != nil {
		t.Fatal(err)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	rows, err := Ablate(tinyOptions(), Ablations...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Ablations) {
		t.Fatalf("%d rows, want %d", len(rows), len(Ablations))
	}
	for _, r := range rows {
		if r.MetricOn < 0 || r.MetricOff < 0 {
			t.Errorf("%s: negative metric", r.Name)
		}
		if r.WLOn <= 0 || r.WLOff <= 0 {
			t.Errorf("%s: zero WL", r.Name)
		}
	}
}

func TestTable2ParallelMatchesSequential(t *testing.T) {
	o := tinyOptions()
	o.Designs = []string{"OR1200"}
	seqRows, _, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = true
	parRows, _, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRows) != len(seqRows) {
		t.Fatalf("row counts differ: %d vs %d", len(parRows), len(seqRows))
	}
	for i := range seqRows {
		a, b := seqRows[i], parRows[i]
		if a.Design != b.Design || a.Flow != b.Flow || *a.Final.Routed != *b.Final.Routed {
			t.Errorf("row %d differs: %+v vs %+v", i, a.Final, b.Final)
		}
	}
}

func TestRTSweepTiny(t *testing.T) {
	o := tinyOptions()
	rows, err := RTSweep("OR1200", []int{15000, 12000}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cells <= 0 {
			t.Error("zero cells")
		}
		for _, p := range []PlacerName{Commercial, RePlAce, PUFFER} {
			if r.RT[p] <= 0 {
				t.Errorf("scale %d: zero RT for %s", r.Scale, p)
			}
		}
	}
	out := FormatRTSweep("OR1200", rows)
	if !strings.Contains(out, "RUNTIME SCALING") || !strings.Contains(out, "C/P") {
		t.Error("FormatRTSweep output malformed")
	}
}

func TestRTSweepUnknownDesign(t *testing.T) {
	if _, err := RTSweep("NOPE", []int{1000}, tinyOptions()); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestAblationTPEBeatsRandom(t *testing.T) {
	r := AblationTPE(3)
	if r.MetricOn >= r.MetricOff {
		t.Errorf("TPE %v not better than random %v", r.MetricOn, r.MetricOff)
	}
	out := FormatAblations([]AblationResult{r})
	if !strings.Contains(out, "TPE") {
		t.Error("FormatAblations output malformed")
	}
}
