package pipeline_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"puffer"
	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/place"
	"puffer/internal/synth"
	"puffer/pipeline"
)

func quickConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Place.MaxIters = 250
	cfg.Place.GridM, cfg.Place.GridN = 32, 32
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

func TestDefaultPipelineMatchesLegacyFlow(t *testing.T) {
	d := stressedDesign(t)
	res, err := pipeline.Execute(context.Background(), d, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.GP.Iters == 0 || res.HPWL <= 0 || len(res.PaddingRuns) == 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
	joined := strings.Join(res.StageLog, "\n")
	for _, stage := range []string{"global placement", "routability optimizer", "legalization"} {
		if !strings.Contains(joined, stage) {
			t.Errorf("stage log missing %q", stage)
		}
	}
	want := []string{pipeline.StagePlace, pipeline.StageLegal, pipeline.StageDP}
	if len(res.Stages) != len(want) {
		t.Fatalf("got %d stage stats, want %d: %+v", len(res.Stages), len(want), res.Stages)
	}
	for i, st := range res.Stages {
		if st.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st.Name, want[i])
		}
		if st.Wall <= 0 {
			t.Errorf("stage %q has zero wall time", st.Name)
		}
	}
	if res.Stages[0].Iters != res.GP.Iters {
		t.Errorf("place stage iters %d != GP iters %d", res.Stages[0].Iters, res.GP.Iters)
	}
	if res.Stages[1].Iters == 0 {
		t.Error("legalize stage reports zero cells")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	run := func() float64 {
		d := stressedDesign(t)
		res, err := pipeline.Execute(context.Background(), d, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs differ: %.6f vs %.6f", a, b)
	}
}

func TestCancellationMidPlacement(t *testing.T) {
	d := stressedDesign(t)
	cfg := quickConfig()
	// Make the uninterrupted placement run long (no early convergence),
	// so the 20ms cancel below is guaranteed to land inside the loop.
	cfg.Place.MaxIters = 5000
	cfg.Place.StopOverflow = 1e-6
	ctx, cancel := context.WithCancel(context.Background())

	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Arm the cancel just before global placement starts: at this scale
	// an uninterrupted placement runs for seconds, so 20ms lands squarely
	// inside the Nesterov loop, which must observe it within one
	// iteration.
	arm := pipeline.StageFunc{StageName: "cancel-arm", Fn: func(context.Context, *pipeline.RunContext) error {
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		return nil
	}}
	stages := append([]pipeline.Stage{arm}, pipeline.Default()...)
	start := time.Now()
	err = pipeline.New(stages...).Run(ctx, rc)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StageError", err)
	}
	if se.Stage != pipeline.StagePlace {
		t.Errorf("canceled in stage %q, want %q", se.Stage, pipeline.StagePlace)
	}
	// Promptness: the whole run must end well before an uninterrupted
	// placement would (seconds at this scale).
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %s to be observed", elapsed)
	}
	// The design is left valid: every movable cell inside the region.
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		if c.X < d.Region.Lo.X-1e-6 || c.X+c.W > d.Region.Hi.X+1e-6 ||
			c.Y < d.Region.Lo.Y-1e-6 || c.Y+c.H > d.Region.Hi.Y+1e-6 {
			t.Fatalf("cell %d outside region after cancel", i)
		}
	}
	// The partial result still reports what ran.
	if rc.Result.Runtime <= 0 {
		t.Error("canceled run reports zero runtime")
	}
	if got := len(rc.Result.Stages); got == 0 {
		t.Error("canceled run recorded no stage stats")
	}
}

func TestPreCanceledContext(t *testing.T) {
	d := stressedDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pipeline.Execute(ctx, d, quickConfig())
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != pipeline.StagePlace {
		t.Errorf("expected StageError for %q, got %v", pipeline.StagePlace, err)
	}
}

func TestCheckpointResumeReproducesHPWL(t *testing.T) {
	cfg := quickConfig()

	// Uninterrupted reference run, checkpointing after every stage.
	d1 := stressedDesign(t)
	rc1, err := pipeline.NewRunContext(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := pipeline.New()
	cps := map[string]*pipeline.Checkpoint{}
	pl.Checkpointer = func(cp *pipeline.Checkpoint) error {
		cps[cp.Stage] = cp
		return nil
	}
	if err := pl.Run(context.Background(), rc1); err != nil {
		t.Fatal(err)
	}
	want := rc1.Result.HPWL

	for _, stage := range []string{pipeline.StagePlace, pipeline.StageLegal} {
		cp, ok := cps[stage]
		if !ok {
			t.Fatalf("no checkpoint captured after %q", stage)
		}
		// Round-trip through JSON: file-based resume must be loss-free.
		path := filepath.Join(t.TempDir(), "cp.json")
		if err := cp.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := pipeline.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		d2 := stressedDesign(t)
		rc2, err := pipeline.NewRunContext(d2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipeline.New().Resume(context.Background(), rc2, loaded); err != nil {
			t.Fatal(err)
		}
		if got := rc2.Result.HPWL; got != want {
			t.Errorf("resume after %q: HPWL %.6f, want %.6f", stage, got, want)
		}
	}
}

// TestRouteStageMatchesEvaluate: the Route stage judges with the router
// puffer.Evaluate uses by default, on the same grid, and a judged run
// resumed from any of its checkpoints — the route checkpoint included, the
// path a routed service job takes after a crash just before its terminal
// manifest — records the same final placement and verdict.
func TestRouteStageMatchesEvaluate(t *testing.T) {
	cfg := quickConfig()
	routed := func() *pipeline.Pipeline { return pipeline.New(append(pipeline.Default(), pipeline.Route())...) }
	// Runtime and the GP counters describe the attempt, not the placement:
	// a run resumed past GP did no GP.
	final := func(rc *pipeline.RunContext) pipeline.Final {
		t.Helper()
		rec, err := pipeline.NewRecord(pipeline.PUFFER, rc)
		if err != nil {
			t.Fatal(err)
		}
		f := rec.Final
		f.RuntimeMS, f.GPIters, f.GPOverflow, f.PaddingRuns = 0, 0, 0, 0
		return f
	}

	d := stressedDesign(t)
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*pipeline.Checkpoint
	pl := routed()
	pl.Checkpointer = func(cp *pipeline.Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	if err := pl.Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	got := rc.Result.Route
	if got == nil || len(cps) != 4 {
		t.Fatalf("route report %v, %d checkpoints", got, len(cps))
	}
	want := puffer.Evaluate(d, puffer.EvalConfig())
	if got.HOF != want.HOF || got.VOF != want.VOF || got.WL != want.WL || got.Rerouted != want.Rerouted {
		t.Errorf("Route stage HOF/VOF/WL/rerouted %v/%v/%v/%d, Evaluate %v/%v/%v/%d",
			got.HOF, got.VOF, got.WL, got.Rerouted, want.HOF, want.VOF, want.WL, want.Rerouted)
	}
	whole := final(rc)

	for _, cp := range cps {
		rc2, err := pipeline.NewRunContext(stressedDesign(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := routed().Resume(context.Background(), rc2, cp); err != nil {
			t.Fatal(err)
		}
		if f := final(rc2); !reflect.DeepEqual(f, whole) {
			t.Errorf("resumed after %q: final %+v (routed %+v), uninterrupted %+v (routed %+v)",
				cp.Stage, f, f.Routed, whole, whole.Routed)
		}
	}

	// Without the judge, the route checkpoint is a finished placement.
	rc3, err := pipeline.NewRunContext(stressedDesign(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.New().Resume(context.Background(), rc3, cps[3]); err != nil {
		t.Fatal(err)
	}
	if rc3.Result.HPWL != whole.HPWL || len(rc3.Result.Stages) != 0 {
		t.Errorf("unjudged resume after route: HPWL %v after %d stages, want %v after none",
			rc3.Result.HPWL, len(rc3.Result.Stages), whole.HPWL)
	}
}

func TestResumeRejectsMismatchedDesign(t *testing.T) {
	d := stressedDesign(t)
	cp := pipeline.Capture(pipeline.StagePlace, d)
	other := synth.Generate(synth.Profiles[0], 6000, 2)
	if len(other.Cells) == len(d.Cells) {
		t.Skip("profiles coincidentally same size")
	}
	if err := cp.Apply(other); err == nil {
		t.Error("checkpoint applied to a differently sized design")
	}
	rc, err := pipeline.NewRunContext(d, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := &pipeline.Checkpoint{Stage: "nonexistent"}
	if err := pipeline.New().Resume(context.Background(), rc, bad); err == nil {
		t.Error("resume accepted a checkpoint from an unknown stage")
	}
}

func TestCustomStageList(t *testing.T) {
	d := stressedDesign(t)
	cfg := quickConfig()
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Skip DP; splice in a custom analysis stage after legalization.
	var sawHPWL float64
	custom := pipeline.StageFunc{StageName: "measure", Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
		if err := flow.Check(ctx); err != nil {
			return err
		}
		sawHPWL = rc.Design.HPWL()
		rc.SetIters(1)
		rc.Logf("stage: custom measurement")
		return nil
	}}
	pl := pipeline.New(pipeline.GlobalPlace(), pipeline.Legalize(), custom)
	if err := pl.Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	if sawHPWL <= 0 {
		t.Error("custom stage did not run")
	}
	names := make([]string, len(rc.Result.Stages))
	for i, st := range rc.Result.Stages {
		names[i] = st.Name
	}
	if got, want := strings.Join(names, ","), "place,legalize,measure"; got != want {
		t.Errorf("stage order %q, want %q", got, want)
	}
	last := rc.Result.Stages[len(rc.Result.Stages)-1]
	if last.Iters != 1 {
		t.Errorf("custom stage iters = %d, want 1", last.Iters)
	}
	if !strings.Contains(strings.Join(rc.Result.StageLog, "\n"), "custom measurement") {
		t.Error("custom stage log line missing")
	}
}

func TestCheckpointerErrorAbortsRun(t *testing.T) {
	d := stressedDesign(t)
	rc, err := pipeline.NewRunContext(d, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := pipeline.New()
	boom := errors.New("disk full")
	pl.Checkpointer = func(*pipeline.Checkpoint) error { return boom }
	err = pl.Run(context.Background(), rc)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped checkpointer error", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != pipeline.StagePlace {
		t.Errorf("checkpointer failure not attributed to its stage: %v", err)
	}
}

// TestRuntimeIsTheStagesWall: Result.Runtime is the sum of the executed
// stages' walls. Work between stages — a Checkpointer that takes its time
// here — is the caller's, not the run's.
func TestRuntimeIsTheStagesWall(t *testing.T) {
	rc, err := pipeline.NewRunContext(stressedDesign(t), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := pipeline.New()
	const nap = 20 * time.Millisecond
	pl.Checkpointer = func(*pipeline.Checkpoint) error { time.Sleep(nap); return nil }
	if err := pl.Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, st := range rc.Result.Stages {
		sum += st.Wall
	}
	if n := len(rc.Result.Stages); n == 0 || rc.Result.Runtime != sum {
		t.Fatalf("Runtime %s over %d stages, want their wall sum %s", rc.Result.Runtime, n, sum)
	}
}

// TestIllegalPlacementFailsItsStage: legality is an enforced
// post-condition of the stages that hand on a legal placement. The row
// legalizer cannot seat a two-row-high cell whose nearest row is the top
// one, and detailed placement handed an overlapping placement leaves it
// overlapping; each run fails in that stage with legal.ErrIllegal and is
// counted, and neither is passed on as a result.
func TestIllegalPlacementFailsItsStage(t *testing.T) {
	for _, tc := range []struct {
		stage pipeline.Stage
		tallH float64
	}{
		{pipeline.Legalize(), 2},
		{pipeline.DetailedPlace(), 1},
	} {
		d := &netlist.Design{
			Name: "illegal", Region: geom.RectWH(0, 0, 16, 4),
			RowHeight: 1, SiteWidth: 0.25, Layers: netlist.DefaultLayers(),
		}
		a := d.AddCell(netlist.Cell{Name: "a", W: 1, H: 1, X: 4, Y: 3})
		b := d.AddCell(netlist.Cell{Name: "b", W: 1, H: tc.tallH, X: 4.5, Y: 3})
		n := d.AddNet("n", 1)
		d.Connect(a, n, 0.5, 0.5)
		d.Connect(b, n, 0.5, 0.5)
		cfg := quickConfig()
		reg := obs.NewRegistry()
		cfg.Obs = obs.NewRecorder(obs.NewTracer(), reg)
		rc, err := pipeline.NewRunContext(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = pipeline.New(tc.stage).Run(context.Background(), rc)
		if !errors.Is(err, legal.ErrIllegal) {
			t.Fatalf("%s: err = %v, want legal.ErrIllegal", tc.stage.Name(), err)
		}
		if stage, _ := flow.StageOf(err); stage != tc.stage.Name() {
			t.Errorf("%s: failure attributed to stage %q: %v", tc.stage.Name(), stage, err)
		}
		if n := reg.Snapshot().Counters["legal.violations"]; n != 1 {
			t.Errorf("%s: legal.violations = %d, want 1", tc.stage.Name(), n)
		}
	}
}

// TestPipelineRejectsBadGridConfig: an invalid grid dimension surfaces
// from the placement stage as a typed *place.ConfigError instead of a
// panic.
func TestPipelineRejectsBadGridConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.Place.GridM = 48 // not a power of two
	d := stressedDesign(t)
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = pipeline.New().Run(context.Background(), rc)
	var ce *place.ConfigError
	if !errors.As(err, &ce) || ce.Field != "GridM" {
		t.Errorf("pipeline error = %v, want *place.ConfigError on GridM", err)
	}
}

// TestGPEndsAtItsBestIterate is the run-level contract of GP's stop rules
// on a seeded congested design whose padding rounds fire: the placement GP
// hands to legalization has an overflow within 1 % of the best iterate's
// since the last round, and an HPWL within 1 % of that iterate's.
func TestGPEndsAtItsBestIterate(t *testing.T) {
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = 1
	rc, err := pipeline.NewRunContext(synth.Generate(p, 800, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.New(pipeline.GlobalPlace()).Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	gp := rc.Result.GP
	if gp.TraceDropped > 0 {
		t.Fatalf("trace dropped %d iterations", gp.TraceDropped)
	}
	last := -1 // the last round's trace index
	for i, it := range gp.Trace {
		if it.Padded {
			last = i
		}
	}
	if last < 0 || last == len(gp.Trace)-1 {
		t.Fatalf("no iterate follows a padding round (last round at index %d of %d)", last, len(gp.Trace))
	}
	best := gp.Trace[last+1]
	for _, it := range gp.Trace[last+1:] {
		if it.Overflow < best.Overflow {
			best = it
		}
	}
	if gp.Overflow > best.Overflow*1.01 {
		t.Errorf("GP ends at overflow %.4f after %d iterations; its best since the last round is %.4f at %d",
			gp.Overflow, gp.Iters, best.Overflow, best.Iter)
	}
	if gp.HPWL > best.HPWL*1.01 {
		t.Errorf("GP ends at HPWL %.0f after %d iterations; the best iterate's (%d) is %.0f",
			gp.HPWL, gp.Iters, best.Iter, best.HPWL)
	}
}

// TestStageEventFollowsItsCheckpoint: a stage that succeeds is checkpointed
// before OnStage hears of it, so an observer told "stage S done" can fetch
// S's checkpoint; a failed stage still reaches OnStage, with its error and
// no checkpoint.
func TestStageEventFollowsItsCheckpoint(t *testing.T) {
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := pipeline.NewRunContext(synth.Generate(p, 12000, 1), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	stage := func(name string, err error) pipeline.Stage {
		return pipeline.StageFunc{StageName: name, Fn: func(context.Context, *pipeline.RunContext) error { return err }}
	}
	var seen []string
	pl := pipeline.New(stage("first", nil), stage("second", nil), stage("third", boom))
	pl.Checkpointer = func(cp *pipeline.Checkpoint) error {
		seen = append(seen, "checkpoint "+cp.Stage)
		return nil
	}
	pl.OnStage = func(st pipeline.StageStats, err error) {
		if err != nil {
			seen = append(seen, "stage "+st.Name+" failed: "+err.Error())
			return
		}
		seen = append(seen, "stage "+st.Name)
	}
	if err := pl.Run(context.Background(), rc); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the third stage's", err)
	}
	want := "checkpoint first, stage first, checkpoint second, stage second, stage third failed: boom"
	if got := strings.Join(seen, ", "); got != want {
		t.Errorf("order:\n got %s\nwant %s", got, want)
	}
}
