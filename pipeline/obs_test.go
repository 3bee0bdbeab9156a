package pipeline_test

import (
	"context"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"puffer/internal/cong"
	"puffer/internal/obs"
	"puffer/pipeline"
)

// TestWriteStageStatsGolden locks the exact `cmd/puffer -stats` output
// format, including the nil-Estimator case: a stage that never ran the
// congestion engine must print its stage line and nothing else, not panic.
func TestWriteStageStatsGolden(t *testing.T) {
	stages := []pipeline.StageStats{
		{
			Name:        "place",
			Wall:        1234567 * time.Microsecond,
			Iters:       412,
			AllocsDelta: 98765,
			Estimator: &cong.Stats{
				Calls:          10,
				LastNets:       4825,
				LastPins:       17120,
				LastTopoWall:   2500 * time.Microsecond,
				LastMergeWall:  300 * time.Microsecond,
				LastExpandWall: 450 * time.Microsecond,
			},
		},
		{Name: "legalize", Wall: 9876 * time.Microsecond, Iters: 5000, AllocsDelta: 42}, // Estimator nil
		{Name: "dp", Wall: 500 * time.Microsecond, Iters: 2, AllocsDelta: 7},
	}
	var b strings.Builder
	pipeline.WriteStageStats(&b, stages)
	want := "" +
		"stage place       1.234567s  iters=412      allocs=98765\n" +
		"  estimator: calls=10 nets=4825 pins=17120 (topo=2.5ms merge=300µs expand=450µs)\n" +
		"stage legalize      9.876ms  iters=5000     allocs=42\n" +
		"stage dp              500µs  iters=2        allocs=7\n"
	if got := b.String(); got != want {
		t.Errorf("stage stats output changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// stageLogPatterns are the locked formats of every line the default stage
// list may emit. The compatibility contract of the telemetry work is that
// these strings stay verbatim; a new line format must be added here
// deliberately.
var stageLogPatterns = []*regexp.Regexp{
	regexp.MustCompile(`^stage: global placement \(engine=ePlace/Nesterov, grid auto\)$`),
	regexp.MustCompile(`^stage: routability optimizer call \d+ at GP iter \d+ \(overflow=-?\d+\.\d{3}\): padded=\d+ recycled=\d+ util=\d+\.\d{3}/\d+\.\d{3} estHOF=\d+\.\d{2}% estVOF=\d+\.\d{2}%$`),
	regexp.MustCompile(`^stage: global placement done \(iters=\d+ overflow=-?\d+\.\d{3} hpwl=\d+\)$`),
	regexp.MustCompile(`^stage: white-space-assisted legalization \(theta=\d+\.\d cap=\d+%\)$`),
	regexp.MustCompile(`^stage: legalization done \(avg disp=\d+\.\d{3}, padding sites=\d+\)$`),
	regexp.MustCompile(`^stage: detailed placement done \(moves=\d+ swaps=\d+ hpwl \d+ -> \d+, padding preserved=(?:true|false)\)$`),
	regexp.MustCompile(`^stage: resumed from checkpoint after "[^"]+" \(\d+ cells\)$`),
	regexp.MustCompile(`^stage: evaluation routing done \(HOF=\d+\.\d{2}% VOF=\d+\.\d{2}% WL=\d+, \d+ segments, \d+ rerouted\)$`),
}

// TestStageLogFormatLocked runs the default flow and requires every
// StageLog line to match one of the locked formats above.
func TestStageLogFormatLocked(t *testing.T) {
	d := stressedDesign(t)
	res, err := pipeline.Execute(context.Background(), d, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageLog) == 0 {
		t.Fatal("empty stage log")
	}
	for _, line := range res.StageLog {
		ok := false
		for _, re := range stageLogPatterns {
			if re.MatchString(line) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("stage log line does not match any locked format: %q", line)
		}
	}
}

// TestResumePreservesStatsAndTelemetry resumes a checkpoint onto the same
// RunContext that ran the placement stage: the place StageStats recorded
// before the resume boundary must survive untouched, the resumed stages
// must append after it, and the metric series recorded during placement
// must still be in the registry afterwards.
func TestResumePreservesStatsAndTelemetry(t *testing.T) {
	d := stressedDesign(t)
	reg := obs.NewRegistry()
	cfg := quickConfig()
	cfg.Obs = obs.NewRecorder(obs.NewTracer(), reg)

	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: placement only, capturing the checkpoint at its boundary.
	first := pipeline.New(pipeline.GlobalPlace())
	var cp *pipeline.Checkpoint
	first.Checkpointer = func(c *pipeline.Checkpoint) error { cp = c; return nil }
	if err := first.Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Stage != pipeline.StagePlace {
		t.Fatalf("no place checkpoint captured: %+v", cp)
	}
	if len(rc.Result.Stages) != 1 {
		t.Fatalf("got %d stage stats after phase 1, want 1", len(rc.Result.Stages))
	}
	placeStats := rc.Result.Stages[0]
	hpwlLen := reg.Series("place.hpwl").Len()
	if hpwlLen != rc.Result.GP.Iters || hpwlLen == 0 {
		t.Fatalf("place.hpwl has %d samples before resume, want %d", hpwlLen, rc.Result.GP.Iters)
	}

	// Phase 2: resume the full stage list after "place" on the SAME
	// context — the long-lived-Result shape of a job server.
	if err := pipeline.New().Resume(context.Background(), rc, cp); err != nil {
		t.Fatal(err)
	}

	wantStages := []string{pipeline.StagePlace, pipeline.StageLegal, pipeline.StageDP}
	if len(rc.Result.Stages) != len(wantStages) {
		t.Fatalf("got %d stage stats after resume, want %d: %+v",
			len(rc.Result.Stages), len(wantStages), rc.Result.Stages)
	}
	for i, st := range rc.Result.Stages {
		if st.Name != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, st.Name, wantStages[i])
		}
	}
	if got := rc.Result.Stages[0]; got.Wall != placeStats.Wall || got.Iters != placeStats.Iters {
		t.Errorf("resume rewrote the pre-boundary place stats: got %+v, want %+v", got, placeStats)
	}
	if got := reg.Series("place.hpwl").Len(); got != hpwlLen {
		t.Errorf("place.hpwl series changed across resume: %d samples, want %d", got, hpwlLen)
	}
	// The resumed stages ran under the same registry: the padding series
	// recorded during phase 1 must coexist with them.
	if len(rc.Result.PaddingRuns) > 0 {
		if got := reg.Series("padding.utilization").Len(); got != len(rc.Result.PaddingRuns) {
			t.Errorf("padding.utilization has %d samples, want %d", got, len(rc.Result.PaddingRuns))
		}
	}
}

// TestBuildReportRoundTrip builds the run report from an instrumented run,
// saves it, reloads it, and checks the fields puffer diag consumes.
func TestBuildReportRoundTrip(t *testing.T) {
	d := stressedDesign(t)
	reg := obs.NewRegistry()
	cfg := quickConfig()
	cfg.Obs = obs.NewRecorder(obs.NewTracer(), reg)
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.New().Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	rep, err := pipeline.BuildReport(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Design != d.Name || rep.Cells != len(d.Cells) || rep.Nets != len(d.Nets) {
		t.Errorf("report identity wrong: %s %d/%d", rep.Design, rep.Cells, rep.Nets)
	}
	if len(rep.Stages) != len(rc.Result.Stages) {
		t.Errorf("report has %d stages, run had %d", len(rep.Stages), len(rc.Result.Stages))
	}
	if rep.Final["hpwl"] != rc.Result.HPWL {
		t.Errorf("final hpwl %v != %v", rep.Final["hpwl"], rc.Result.HPWL)
	}
	if len(rep.Metrics.Series["place.hpwl"]) != rc.Result.GP.Iters {
		t.Errorf("report lost the place.hpwl series: %d samples, want %d",
			len(rep.Metrics.Series["place.hpwl"]), rc.Result.GP.Iters)
	}
	if len(rep.Config) == 0 {
		t.Error("report has no embedded config")
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := obs.LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Design != rep.Design || len(loaded.Stages) != len(rep.Stages) ||
		loaded.Final["hpwl"] != rep.Final["hpwl"] {
		t.Errorf("report round trip lost data: %+v", loaded)
	}
}
