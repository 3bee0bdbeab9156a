package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"puffer/internal/baseline"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// tinyOptions keeps experiment tests fast: ~100-cell designs.
func tinyOptions() Options {
	return Options{Scale: 12000, Seed: 1, PlaceIters: 150}
}

func TestTable1AllDesigns(t *testing.T) {
	rows, err := Table1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
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

// TestTable1DefaultsTheSeed: Table I fills in the default seed like every
// judged section does, so at an unset seed it describes the designs Table
// II places.
func TestTable1DefaultsTheSeed(t *testing.T) {
	got, err := Table1(Options{Scale: 3000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Table1(Options{Scale: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Table1 at an unset seed differs from seed 1:\n%s\nwant\n%s", FormatTable1(got), FormatTable1(want))
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
		if s.Flow == baseline.PUFFER {
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
	cell := func(design, flow string, hof, vof, wl float64, rt time.Duration) *pipeline.Record {
		return &pipeline.Record{Design: design, Flow: flow, Final: pipeline.Final{
			RuntimeMS: float64(rt) / float64(time.Millisecond),
			Routed:    &pipeline.Routed{HOF: hof, VOF: vof, WL: wl},
		}}
	}
	rows := []*pipeline.Record{
		cell("a", baseline.PUFFER, 0.5, 2.0, 100, time.Second),
		cell("b", baseline.PUFFER, 1.0, 0.9, 100, time.Second),
		cell("a", baseline.RePlAce, 1.5, 0.5, 110, 2*time.Second),
		cell("b", baseline.RePlAce, 0.2, 0.2, 120, 2*time.Second),
	}
	sums := Summarize(rows)
	for _, s := range sums {
		switch s.Flow {
		case baseline.PUFFER:
			if s.PassCountHOF != 2 || s.PassCountVOF != 1 {
				t.Errorf("PUFFER pass counts = %d/%d, want 2/1", s.PassCountHOF, s.PassCountVOF)
			}
		case baseline.RePlAce:
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
		{Design: "b", Flow: baseline.PUFFER},
		{Design: "a", Flow: baseline.PUFFER},
		{Design: "a", Flow: baseline.Commercial},
	}
	SortRows(rows)
	if rows[0].Design != "a" || rows[0].Flow != baseline.Commercial {
		t.Errorf("sort order wrong: %+v", rows)
	}
	if rows[1].Design != "a" || rows[1].Flow != baseline.PUFFER {
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
			t.Errorf("%s: map size mismatch", m.Flow)
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

// TestJudgeParallelMatchesSerial: the runner gives every cell the same
// record and routed map whether the cells run concurrently or in order,
// for a Table II list, an ablation list with "off" edits and the Fig. 5
// list.
func TestJudgeParallelMatchesSerial(t *testing.T) {
	o := tinyOptions()
	or1200, _ := synth.ProfileByName("OR1200")
	media, _ := synth.ProfileByName("MEDIA_SUBSYS")
	for _, tc := range []struct {
		name  string
		cells []cell
	}{
		{"table2", append(o.flowCells(or1200, o.Scale), o.flowCells(media, o.Scale)...)},
		{"ablations", ablationCells(o, []Ablation{AblationRecycling, AblationDPPreserve})},
		{"fig5", o.flowCells(media, o.Scale)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqRecs, seqRoutes, err := o.judge(tc.name, tc.cells)
			if err != nil {
				t.Fatal(err)
			}
			po := o
			po.Parallel = true
			parRecs, parRoutes, err := po.judge(tc.name, tc.cells)
			if err != nil {
				t.Fatal(err)
			}
			if len(parRecs) != len(tc.cells) || len(seqRecs) != len(tc.cells) {
				t.Fatalf("%d serial and %d parallel records for %d cells", len(seqRecs), len(parRecs), len(tc.cells))
			}
			for i := range tc.cells {
				a, b := *seqRecs[i], *parRecs[i]
				if a.Design != b.Design || a.Flow != b.Flow || a.Seed != b.Seed || string(a.Config) != string(b.Config) {
					t.Errorf("cell %d: serial %s/%s seed %d, parallel %s/%s seed %d", i, a.Design, a.Flow, a.Seed, b.Design, b.Flow, b.Seed)
				}
				fa, fb := a.Final, b.Final
				fa.RuntimeMS, fb.RuntimeMS = 0, 0
				if fa.Routed == nil || fb.Routed == nil || *fa.Routed != *fb.Routed {
					t.Errorf("cell %d: routed %+v vs %+v", i, fa.Routed, fb.Routed)
				}
				fa.Routed, fb.Routed = nil, nil
				if fa != fb {
					t.Errorf("cell %d: final %+v vs %+v", i, fa, fb)
				}
				if !reflect.DeepEqual(seqRoutes[i], parRoutes[i]) {
					t.Errorf("cell %d: routed maps differ", i)
				}
			}
		})
	}
}

// TestUnknownDesignIsAnError: a -designs name that names no profile fails
// the section instead of shrinking it.
func TestUnknownDesignIsAnError(t *testing.T) {
	o := tinyOptions()
	o.Designs = []string{"OR1200", "FOO"}
	if _, _, err := Table2(o); err == nil || !strings.Contains(err.Error(), `"FOO"`) {
		t.Errorf("Table2 with an unknown design: err %v, want one naming FOO", err)
	}
	if _, err := Table1(o); err == nil || !strings.Contains(err.Error(), `"FOO"`) {
		t.Errorf("Table1 with an unknown design: err %v, want one naming FOO", err)
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
		for _, p := range baseline.Flows {
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

// TestAblationTPEDefaultsTheSeed: the TPE row maps an unset seed to the
// default like every other section, so `puffer experiments -seed 0` runs
// the same three landscape seeds as `-seed 1`.
func TestAblationTPEDefaultsTheSeed(t *testing.T) {
	if got, want := AblationTPE(0), AblationTPE(DefaultOptions().Seed); got != want {
		t.Errorf("AblationTPE(0) = %+v, want the default seed's %+v", got, want)
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
