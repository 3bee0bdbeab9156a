package pipeline_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"puffer/internal/cong"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/pipeline"
)

// TestWriteStageStatsGolden locks the exact `cmd/puffer` stage-table output
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
	regexp.MustCompile(`^stage: global placement done \(iters=\d+ overflow=-?\d+\.\d{3} hpwl=\d+ stop=(?:target|plateau|lambda|max_iters) best_iter=\d+ restored=(?:true|false)\)$`),
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
	// recorded during phase 1 must coexist with them, one sample per round
	// carrying that round's RunInfo.
	runs := rc.Result.PaddingRuns
	if len(runs) == 0 {
		t.Fatal("the stressed design ran no padding round")
	}
	for name, field := range map[string]func(padding.RunInfo) float64{
		"padding.utilization":  func(r padding.RunInfo) float64 { return r.Utilization },
		"padding.target_util":  func(r padding.RunInfo) float64 { return r.TargetUtil },
		"padding.padded_cells": func(r padding.RunInfo) float64 { return float64(r.PaddedCells) },
	} {
		s := reg.Series(name).Samples()
		if len(s) != len(runs) {
			t.Errorf("%s has %d samples, want %d", name, len(s), len(runs))
			continue
		}
		for k, r := range runs {
			if s[k].Step != r.Iter || s[k].Value != field(r) {
				t.Errorf("%s sample %d = %+v, want step %d value %v", name, k, s[k], r.Iter, field(r))
			}
		}
	}
}

// TestBuildReportRoundTrip builds the run report (the Record) of an
// instrumented judged run, saves it, reloads it, checks the fields puffer
// diag consumes, and checks that re-saving reproduces the document and a
// foreign schema is refused.
func TestBuildReportRoundTrip(t *testing.T) {
	d := stressedDesign(t)
	reg := obs.NewRegistry()
	cfg := quickConfig()
	cfg.Obs = obs.NewRecorder(obs.NewTracer(), reg)
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.New(append(pipeline.Default(), pipeline.Route())...).Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	rec, err := pipeline.NewRecord(pipeline.PUFFER, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Flow != pipeline.PUFFER || rec.Design != d.Name || rec.Cells != len(d.Cells) || rec.Nets != len(d.Nets) {
		t.Errorf("record identity wrong: %s %s %d/%d", rec.Flow, rec.Design, rec.Cells, rec.Nets)
	}
	if len(rec.Stages) != 4 || rec.Stages[0].Estimator == nil {
		t.Errorf("record has %d stages (place estimator %v), want 4 with the estimator", len(rec.Stages), rec.Stages[0].Estimator)
	}
	if rec.Final.HPWL != rc.Result.HPWL || rec.Final.Routed == nil || rec.Final.WL != rc.Result.Route.WL {
		t.Errorf("final %+v does not match the run", rec.Final)
	}
	if rt := rec.PlaceRuntime(); rt <= 0 || rt >= rc.Result.Runtime {
		t.Errorf("place runtime %v, want positive and below the run's %v", rt, rc.Result.Runtime)
	}
	if len(rec.Metrics.Series["place.hpwl"]) != rc.Result.GP.Iters {
		t.Errorf("record lost the place.hpwl series: %d samples, want %d",
			len(rec.Metrics.Series["place.hpwl"]), rc.Result.GP.Iters)
	}
	if len(rec.Config) == 0 {
		t.Error("record has no embedded config")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pipeline.LoadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Design != rec.Design || len(loaded.Stages) != len(rec.Stages) ||
		!reflect.DeepEqual(loaded.Final, rec.Final) || !reflect.DeepEqual(loaded.Stages, rec.Stages) {
		t.Errorf("record round trip lost data: %+v", loaded)
	}
	// Saving the loaded record reproduces the identical document (the
	// round-trip property puffer diag relies on).
	path2 := filepath.Join(dir, "run2.json")
	if err := loaded.Save(path2); err != nil {
		t.Fatal(err)
	}
	b1, err1 := os.ReadFile(path)
	b2, err2 := os.ReadFile(path2)
	if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
		t.Errorf("re-saved record differs (%v, %v)", err1, err2)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"puffer/run-report/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.LoadRecord(bad); err == nil {
		t.Error("loaded a record with the wrong schema")
	}
}
