package pipeline

import (
	"context"
	"fmt"

	"puffer/internal/dp"
	"puffer/internal/legal"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/router"
)

// Stage is one unit of the flow. Run mutates rc.Design and records its
// outputs into rc.Result; it must observe ctx (directly or through the
// context-aware engine entry points) so cancellation propagates within one
// iteration of work. Stage names must be unique within a pipeline: they
// key StageStats, StageError, and checkpoint resume points.
type Stage interface {
	Name() string
	Run(ctx context.Context, rc *RunContext) error
}

// StageFunc adapts a named function to the Stage interface, the idiomatic
// way to splice a custom step into a stage list.
type StageFunc struct {
	StageName string
	Fn        func(ctx context.Context, rc *RunContext) error
}

// Name implements Stage.
func (s StageFunc) Name() string { return s.StageName }

// Run implements Stage.
func (s StageFunc) Run(ctx context.Context, rc *RunContext) error { return s.Fn(ctx, rc) }

// Canonical stage names of the default Fig. 2 flow.
const (
	StagePlace = "place"
	StageLegal = "legalize"
	StageDP    = "dp"
	StageRoute = "route"
)

// A Round is a flow's routability optimizer as global placement drives it:
// the placement stage calls it from the engine's per-iteration hook with
// the iteration and density overflow, and the round decides whether to
// run. A round that ran returns what it did, recorded in
// Result.PaddingRuns, and whether the padding the engine sees changed; a
// round that did not run returns nil. An error (a cancel) ends placement.
type Round func(ctx context.Context, iter int, overflow float64) (*padding.RunInfo, bool, error)

// GlobalPlace returns the global-placement stage: the electrostatic engine
// with the routability optimizer hooked into every Nesterov iteration
// (paper Fig. 2, stages 1–2). It fills Result.GP and Result.PaddingRuns.
func GlobalPlace() Stage {
	return GlobalPlaceWith(func(rc *RunContext) Round {
		opt := rc.PadOptimizer()
		return func(ctx context.Context, iter int, overflow float64) (*padding.RunInfo, bool, error) {
			if !opt.ShouldTrigger(iter, overflow) {
				return nil, false, nil
			}
			info, err := opt.RunCtx(ctx)
			if err != nil {
				return nil, false, err
			}
			return &info, true, nil
		}
	})
}

// GlobalPlaceWith returns the global-placement stage with the round
// newRound builds for the run in place of PUFFER's optimizer: the one GP
// stage every flow runs, PUFFER's and the Table-II comparators' alike. It
// fills Result.GP and Result.PaddingRuns.
func GlobalPlaceWith(newRound func(rc *RunContext) Round) Stage {
	return StageFunc{StageName: StagePlace, Fn: func(ctx context.Context, rc *RunContext) error {
		rc.Logf("stage: global placement (engine=ePlace/Nesterov, grid auto)")
		round := newRound(rc)
		placer, err := place.NewChecked(rc.Design, rc.Cfg.Place)
		if err != nil {
			return err
		}
		var hookErr error
		hook := place.HookFunc(func(iter int, overflow float64) bool {
			if hookErr != nil {
				return false
			}
			info, changed, err := round(ctx, iter, overflow)
			if err != nil {
				// Remember the cancel; the engine's own loop-top check
				// terminates the iteration right after this hook returns.
				hookErr = err
				return false
			}
			if info == nil {
				return false
			}
			rc.Result.PaddingRuns = append(rc.Result.PaddingRuns, *info)
			rc.Logf("stage: routability optimizer call %d at GP iter %d (overflow=%.3f): padded=%d recycled=%d util=%.3f/%.3f estHOF=%.2f%% estVOF=%.2f%%",
				info.Iter, iter, overflow, info.PaddedCells, info.Recycled,
				info.Utilization, info.TargetUtil, info.EstHOF, info.EstVOF)
			return changed
		})
		gp, err := placer.RunCtx(ctx, hook)
		rc.Result.GP = *gp
		rc.SetIters(gp.Iters)
		rc.SetEngineReuse(placer.ReuseState())
		if rc.opt != nil && rc.opt.Iter() > 0 {
			rc.SetEstimatorStats(rc.opt.Estimator().Stats())
		}
		if err == nil {
			err = hookErr
		}
		if err != nil {
			return err
		}
		rc.Logf("stage: global placement done (iters=%d overflow=%.3f hpwl=%.0f stop=%s best_iter=%d restored=%t)",
			gp.Iters, gp.Overflow, gp.HPWL, gp.Stop, gp.BestIter, gp.Restored)
		return nil
	}}
}

// Legalize returns the white-space-assisted legalization stage (paper
// Sec. III-D): padding discretized by Eq. 17 with θ = Strategy.Theta (<= 0
// inherits nothing) feeds an Abacus-based row legalization. It fills
// Result.Legal.
func Legalize() Stage {
	return StageFunc{StageName: StageLegal, Fn: func(ctx context.Context, rc *RunContext) error {
		lcfg := legal.DefaultConfig()
		lcfg.Theta = rc.Cfg.Strategy.Theta
		rc.Logf("stage: white-space-assisted legalization (theta=%.1f cap=%.0f%%)",
			lcfg.Theta, 100*lcfg.MaxUtil)
		lres, err := legal.LegalizeCtx(ctx, rc.Design, lcfg)
		if err != nil {
			return err
		}
		rc.Result.Legal = lres
		rc.SetIters(lres.Cells)
		rc.Logf("stage: legalization done (avg disp=%.3f, padding sites=%d)",
			lres.AvgDisplacement, lres.PaddingSites)
		return requireLegal(rc)
	}}
}

// requireLegal is the post-condition of every stage that hands on a legal
// placement: the independent checker, not the stage's own opinion, says
// so. A violation fails the stage with an error wrapping legal.ErrIllegal.
func requireLegal(rc *RunContext) error {
	vs := legal.Check(rc.Design, 1)
	if len(vs) == 0 {
		return nil
	}
	rc.Cfg.Obs.Counter("legal.violations").Inc()
	return fmt.Errorf("%w: %s", legal.ErrIllegal, vs[0])
}

// DetailedPlace returns the padding-preserving detailed-placement stage.
// With Cfg.DP.Passes <= 0 it is a recorded no-op, matching the historical
// behaviour of skipping refinement. It fills Result.DP.
func DetailedPlace() Stage {
	return StageFunc{StageName: StageDP, Fn: func(ctx context.Context, rc *RunContext) error {
		if rc.Cfg.DP.Passes <= 0 {
			return nil
		}
		dres, err := dp.RefineCtx(ctx, rc.Design, rc.Cfg.DP)
		if err != nil {
			return err
		}
		rc.Result.DP = dres
		rc.SetIters(dres.Passes)
		rc.Logf("stage: detailed placement done (moves=%d swaps=%d hpwl %.0f -> %.0f, padding preserved=%v)",
			dres.Moves, dres.Swaps, dres.HPWLBefore, dres.HPWLAfter, rc.Cfg.DP.PreservePadding)
		return requireLegal(rc)
	}}
}

// Route returns the evaluation-routing stage: the built-in global router
// judges the placement the way the paper's commercial router does
// (Sec. IV), storing the report in Result.Route. It routes with
// router.DefaultConfig() on the flow's Gcell grid, worker cap and
// recorder. It is the one judge: the CLI, the experiments, the
// exploration objective and routed service jobs all append it to their
// stage list.
func Route() Stage {
	return StageFunc{StageName: StageRoute, Fn: func(ctx context.Context, rc *RunContext) error {
		cfg := router.DefaultConfig()
		cfg.GridW, cfg.GridH = rc.GridW, rc.GridH
		cfg.Workers = rc.Cfg.Workers
		cfg.Obs = rc.Cfg.Obs
		rr, err := router.RouteCtx(ctx, rc.Design, cfg)
		if err != nil {
			return err
		}
		rc.Result.Route = rr
		rc.SetIters(rr.Segments)
		rc.Logf("stage: evaluation routing done (HOF=%.2f%% VOF=%.2f%% WL=%.0f, %d segments, %d rerouted)",
			rr.HOF, rr.VOF, rr.WL, rr.Segments, rr.Rerouted)
		return nil
	}}
}

// Default returns the paper's Fig. 2 stage list — global placement (with
// the in-loop routability optimizer), legalization, detailed placement —
// the PUFFER flow. A caller that judges the placement appends Route.
func Default() []Stage {
	return []Stage{GlobalPlace(), Legalize(), DetailedPlace()}
}
