package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"puffer"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/router"
	"puffer/pipeline"
)

// The traced run measures every layer from outside, with spans recorded by
// this package only (spans inside the program are a later issue):
//
//	(a) stage wrappers — pipeline.StageFuncs under the canonical names
//	    around Legalize/DetailedPlace;
//	(b) a replica of the pipeline's GlobalPlace wiring, built from public
//	    API only, that times hook-to-hook intervals and optimizer calls;
//	(c) kernel replays on states captured during that run (kernels.go);
//	(d) client-side spans, manifest timestamps and /api/v1/ops counters
//	    for the service (probes.go).
//
// The replica must stay equivalent to pipeline/stages.go: tracedPlace fails
// the run unless it reproduces the untraced run of the same seed bit for bit.

// captureIters are the GP iterations whose state the kernel replays run
// on, besides the final placement.
var captureIters = []int{50, 300}

// gpCapture is the design state at one GP iteration.
type gpCapture struct {
	iter  int
	cp    *pipeline.Checkpoint
	gamma float64 // WA smoothing at that iteration, from the GP trace
}

// gpTrace is what the replica placement stage measured.
type gpTrace struct {
	initS    float64
	gpS      float64 // Placer.RunCtx wall minus time spent inside the hook
	iters    int
	iterMS   []float64 // hook-to-hook interval: one engine iteration
	padRunMS []float64 // Optimizer.RunCtx wall per call
	infos    []padding.RunInfo
	captures []gpCapture
	gridM    int
	gridN    int
	skipRate float64 // density solves skipped by the deposit fingerprint
	hitRate  float64 // estimator journal hit rate over the run
}

// replicaGlobalPlace mirrors pipeline.GlobalPlace — same calls in the same
// order, same log lines, same results recorded into rc — and adds timing
// and spans around them. parent is the run span.
func replicaGlobalPlace(parent *obs.Span, gt *gpTrace) pipeline.Stage {
	return pipeline.StageFunc{StageName: pipeline.StagePlace, Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
		stage := parent.Child("stage." + pipeline.StagePlace)
		defer stage.End()
		rc.Logf("stage: global placement (engine=ePlace/Nesterov, grid auto)")
		opt := rc.PadOptimizer()

		sp := stage.Child("place.init")
		t0 := time.Now()
		placer, err := place.NewChecked(rc.Design, rc.Cfg.Place)
		gt.initS = time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return err
		}

		gpSpan := stage.Child("place.gp")
		iterSpan := gpSpan.Child("gp.warmup")
		var (
			hookErr   error
			hookTotal time.Duration
			lastExit  time.Time
		)
		wantCapture := map[int]bool{}
		for _, it := range captureIters {
			wantCapture[it] = true
		}
		hook := place.HookFunc(func(iter int, overflow float64) bool {
			enter := time.Now()
			if !lastExit.IsZero() {
				gt.iterMS = append(gt.iterMS, enter.Sub(lastExit).Seconds()*1e3)
			}
			iterSpan.End()
			iterSpan = gpSpan.Child("gp.iter")
			defer func() {
				lastExit = time.Now()
				hookTotal += lastExit.Sub(enter)
			}()
			if wantCapture[iter] {
				gt.captures = append(gt.captures, gpCapture{iter: iter, cp: pipeline.Capture(pipeline.StagePlace, rc.Design)})
			}
			if hookErr != nil || !opt.ShouldTrigger(iter, overflow) {
				return false
			}
			psp := iterSpan.Child("padding.run")
			t := time.Now()
			info, err := opt.RunCtx(ctx)
			gt.padRunMS = append(gt.padRunMS, time.Since(t).Seconds()*1e3)
			psp.End()
			if err != nil {
				hookErr = err
				return false
			}
			gt.infos = append(gt.infos, info)
			rc.Result.PaddingRuns = append(rc.Result.PaddingRuns, info)
			rc.Logf("stage: routability optimizer call %d at GP iter %d (overflow=%.3f): padded=%d recycled=%d util=%.3f/%.3f estHOF=%.2f%% estVOF=%.2f%%",
				info.Iter, iter, overflow, info.PaddedCells, info.Recycled,
				info.Utilization, info.TargetUtil, info.EstHOF, info.EstVOF)
			return true
		})
		t0 = time.Now()
		gp, err := placer.RunCtx(ctx, hook)
		gt.gpS = (time.Since(t0) - hookTotal).Seconds()
		iterSpan.End()
		gpSpan.End()

		rc.Result.GP = *gp
		rc.SetIters(gp.Iters)
		rc.SetGridLevel(placer.Level())
		rc.SetEngineReuse(placer.ReuseState())
		if opt.Iter() > 0 {
			st := opt.Estimator().Stats()
			rc.SetEstimatorStats(st)
			gt.hitRate = st.HitRate()
		}
		gt.iters = gp.Iters
		if fine := placer.Solver().Finest(); fine != nil {
			gt.gridM, gt.gridN = fine.M, fine.N
		}
		if s := placer.Solver(); s.Solves()+s.SolveSkips() > 0 {
			gt.skipRate = float64(s.SolveSkips()) / float64(s.Solves()+s.SolveSkips())
		}
		for i := range gt.captures {
			for _, it := range gp.Trace {
				if it.Iter == gt.captures[i].iter {
					gt.captures[i].gamma = it.Gamma
				}
			}
		}
		if err == nil {
			err = hookErr
		}
		if err != nil {
			return err
		}
		rc.Logf("stage: global placement done (iters=%d overflow=%.3f hpwl=%.0f)", gp.Iters, gp.Overflow, gp.HPWL)
		return nil
	}}
}

// wrapStage runs a stock pipeline stage under a span of the canonical name.
func wrapStage(parent *obs.Span, inner pipeline.Stage) pipeline.Stage {
	return pipeline.StageFunc{StageName: inner.Name(), Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
		sp := parent.Child("stage." + inner.Name())
		defer sp.End()
		return inner.Run(ctx, rc)
	}}
}

// placeTrace is one design placed twice — untraced, then through the
// replica — with what the second run measured.
type placeTrace struct {
	base     *netlist.Design
	cfg      puffer.Config
	gridW    int // congestion grid
	gridH    int
	untraced placeRep
	placeS   float64 // traced NewRunContext + pipeline.Run wall
	res      *pipeline.Result
	rr       *router.Result
	routeS   float64
	final    *netlist.Design // traced result: legalized, refined
	gp       gpTrace
	allocMB  float64
	allocs   float64
}

// tracedPlace places base untraced (the reference) and then through the
// stage wrappers and the GlobalPlace replica, and enforces the equivalence
// guard: bit-identical HPWL, padding rounds and GP iteration count.
func (h *harness) tracedPlace(ctx context.Context, res *runResult, tr *obs.Tracer, base *netlist.Design) (*placeTrace, error) {
	pt := &placeTrace{base: base, cfg: h.flowConfig()}
	var err error
	pt.untraced, err = h.placeOnce(ctx, base)
	res.op(err)
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}

	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	d := base.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := tr.StartSpan("run")
	t0 := time.Now()
	rc, err := pipeline.NewRunContext(d, pt.cfg)
	if err == nil {
		err = pipeline.New(
			replicaGlobalPlace(run, &pt.gp),
			wrapStage(run, pipeline.Legalize()),
			wrapStage(run, pipeline.DetailedPlace()),
		).Run(ctx, rc)
	}
	pt.placeS = time.Since(t0).Seconds()
	run.End()
	runtime.ReadMemStats(&after)
	if err != nil {
		res.op(err)
		return nil, fmt.Errorf("traced run: %w", err)
	}
	pt.res, pt.final, pt.gridW, pt.gridH = rc.Result, d, rc.GridW, rc.GridH
	pt.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	pt.allocs = float64(after.Mallocs - before.Mallocs)

	sp := tr.StartSpan("route")
	t0 = time.Now()
	pt.rr = puffer.Evaluate(d, h.evalConfig())
	pt.routeS = time.Since(t0).Seconds()
	sp.End()

	q := quality{HPWL: pt.res.HPWL, RoutedWL: pt.rr.WL, HOF: pt.rr.HOF, VOF: pt.rr.VOF}
	err = checkPlacement(d, pt.res.HPWL)
	if err == nil {
		err = checkRouting(q)
	}
	res.op(err)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := equivalent(pt.untraced, pt.res, q); err != nil {
		res.fail(fmt.Errorf("traced-run equivalence guard: %w", err))
	}
	h.logf("traced place: %.2fs vs untraced %.2fs, %d iters, %d padding rounds",
		pt.placeS, pt.untraced.placeS, pt.gp.iters, len(pt.gp.infos))
	return pt, nil
}

// equivalent is the traced-run equivalence guard: the replica stage and
// the stage wrappers must reproduce the stock pipeline's result exactly,
// or the replica has drifted from pipeline/stages.go.
func equivalent(ref placeRep, got *pipeline.Result, q quality) error {
	if err := checkSameQuality("traced and untraced run", ref.q, q); err != nil {
		return err
	}
	if got.GP.Iters != ref.res.GP.Iters {
		return fmt.Errorf("GP iterations %d, untraced %d", got.GP.Iters, ref.res.GP.Iters)
	}
	if len(got.PaddingRuns) != len(ref.res.PaddingRuns) {
		return fmt.Errorf("%d padding rounds, untraced %d", len(got.PaddingRuns), len(ref.res.PaddingRuns))
	}
	for i := range got.PaddingRuns {
		if got.PaddingRuns[i] != ref.res.PaddingRuns[i] {
			return fmt.Errorf("padding round %d: %+v, untraced %+v", i+1, got.PaddingRuns[i], ref.res.PaddingRuns[i])
		}
	}
	return nil
}

// runTraced is the traced run of any workload. It measures the layers on
// the workload's own design and flow; layers the workload does not reach
// (ECO sessions, the daemon) are measured by small companion probes on
// inputs from the same seed, so every per-layer metric is a measurement in
// every traced run (README.md lists which numbers come from companions).
func (h *harness) runTraced(ctx context.Context, name string) *runResult {
	res := newRunResult(name, h.seed, h.seconds, true)
	tr := obs.NewTracer()

	// The design whose placement the stage/GP/kernel layers are measured on.
	layerSpec, layerSeed := designCongested, h.seed
	switch name {
	case wlPlaceLargeCalm:
		layerSpec = designLargeCalm
	case wlEcoChain:
		layerSpec = designEco
	case wlServeSmallJobs:
		layerSpec, layerSeed = designServeUpload, subSeed(h.seed, 100) // the first upload design
	}
	base, genMS, err := medianOf(setupReps, func() (*netlist.Design, error) { return layerSpec.generate(layerSeed) })
	if err != nil {
		res.op(err)
		return res
	}
	res.set("synth.generate_ms", genMS*1e3)
	st := base.Stats()
	res.note("layer design", "%s/%d seed %d: %d movable cells, %d nets", layerSpec.Profile, layerSpec.Scale, layerSeed, st.Cells, st.Nets)

	pt, err := h.tracedPlace(ctx, res, tr, base)
	if err != nil {
		res.fail(err)
		return res
	}
	h.placeLayerMetrics(res, pt)
	if err := h.kernelReplays(res, pt); err != nil {
		res.fail(fmt.Errorf("kernel replays: %w", err))
	}
	if err := h.ioProbes(res, pt); err != nil {
		res.fail(fmt.Errorf("io probes: %w", err))
	}

	// ECO layer: the full chain on eco_chain, a short companion elsewhere.
	ecoSpec, nDeltas := designEcoProbe, 10
	if name == wlEcoChain {
		ecoSpec, nDeltas = designEco, ecoDeltaCount(h.seconds)
	}
	if err := h.ecoLayerMetrics(ctx, res, tr, ecoSpec, nDeltas); err != nil {
		res.fail(fmt.Errorf("eco layers: %w", err))
	}

	// Service layer: the full job mix on serve_small_jobs, a short
	// companion elsewhere.
	nJobs := 16
	if name == wlServeSmallJobs {
		nJobs = serveJobCount(h.seconds)
	}
	jobShare, err := h.serveLayerMetrics(ctx, res, tr, nJobs)
	if err != nil {
		res.fail(fmt.Errorf("serve layers: %w", err))
	}

	spans, err := exportSpans(tr, filepath.Join(h.resultsDir, "trace-"+name+".json"))
	if err != nil {
		res.fail(err)
		return res
	}
	folded := foldSpans(spans)
	for _, name := range sortedKeys(folded) {
		t := folded[name]
		h.logf("span %-16s n=%-5d total %10.3f ms  self %10.3f ms", name, t.Count, t.TotalUS/1e3, t.SelfUS/1e3)
	}
	// trace.coverage is the weakest attribution in the run: stage level,
	// placement-stage level, GP level, client job level, and the share of
	// job wall the serve.* decomposition explains.
	cov := jobShare
	for _, parent := range []string{"run", "stage." + pipeline.StagePlace, "place.gp", "job"} {
		c := coverage(folded, parent)
		res.note("coverage "+parent, "%.4f", c)
		if c < cov {
			cov = c
		}
	}
	res.set("trace.coverage", cov)
	if cov < minCoverage {
		res.fail(fmt.Errorf("trace.coverage %.3f below %.2f", cov, minCoverage))
	}
	if t := folded["run"]; t != nil {
		res.set("pipeline.overhead_ms", (t.TotalUS-t.ChildUS)/1e3)
	}
	return res
}

// placeLayerMetrics turns the traced placement into the stage-, GP- and
// optimizer-level metrics.
func (h *harness) placeLayerMetrics(res *runResult, pt *placeTrace) {
	gp := &pt.gp
	res.set("place.init_s", gp.initS)
	res.set("place.gp_s", gp.gpS)
	res.set("place.iters", float64(gp.iters))
	res.set("place.gp_iter_ms_p50", median(gp.iterMS))
	res.set("place.gp_iter_ms_p95", percentile(gp.iterMS, 95))
	res.set("density.solve_skip_rate", gp.skipRate)
	res.set("cong.hit_rate", gp.hitRate)

	res.set("padding.run_ms", median(gp.padRunMS))
	res.set("padding.calls", float64(len(gp.infos)))
	padded, recycled := 0, 0
	for _, info := range gp.infos {
		padded += info.PaddedCells
		recycled += info.Recycled
	}
	res.set("padding.padded_cells", float64(padded))
	res.set("padding.recycled", float64(recycled))

	for _, st := range pt.res.Stages {
		switch st.Name {
		case pipeline.StageLegal:
			res.set("legal.legalize_s", st.Wall.Seconds())
			res.set("legal.cells_per_s", float64(pt.res.Legal.Cells)/st.Wall.Seconds())
		case pipeline.StageDP:
			res.set("dp.refine_s", st.Wall.Seconds())
		}
	}
	res.set("legal.avg_disp", pt.res.Legal.AvgDisplacement)
	res.set("dp.moves", float64(pt.res.DP.Moves))
	res.set("dp.hpwl_gain_pct", 100*(pt.res.DP.HPWLBefore-pt.res.DP.HPWLAfter)/pt.res.DP.HPWLBefore)

	res.set("router.route_s", pt.routeS)
	res.set("router.segments", float64(pt.rr.Segments))
	res.set("router.reroute_ratio", float64(pt.rr.Rerouted)/float64(pt.rr.Segments))
	res.set("router.hof_pct", pt.rr.HOF)
	res.set("router.vof_pct", pt.rr.VOF)

	res.set("pipeline.alloc_mb", pt.allocMB)
	res.set("pipeline.allocs", pt.allocs)
	res.set("trace.overhead_pct", 100*(pt.placeS-pt.untraced.placeS)/pt.untraced.placeS)
}
