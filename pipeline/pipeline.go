// Package pipeline is the staged orchestration layer of the PUFFER flow
// (paper Fig. 2): global placement with the in-loop routability optimizer,
// white-space-assisted legalization, padding-preserving detailed
// placement, and (optionally) the evaluation routing — each as a Stage
// composed into a Pipeline that threads one shared RunContext through an
// ordered, user-composable stage list.
//
// Compared with the former monolithic flow function, the pipeline adds the
// properties a long placement job needs when served as a unit of work:
//
//   - cancellation and deadline propagation: every stage receives a
//     context.Context and every engine layer observes it within one
//     iteration / net batch / pass / trial, returning errors that wrap
//     flow.ErrCanceled inside a per-stage flow.StageError;
//   - per-stage observability: wall time, iteration counts, and allocation
//     deltas are recorded as StageStats in Result.Stages;
//   - checkpoint/resume: cell positions, padding, and net weights can be
//     captured after any stage and a later run resumed from that point,
//     reproducing the uninterrupted result bit for bit.
//
// puffer.Run remains the one-call convenience wrapper over the default
// stage list; this package is the API for callers that need to compose,
// skip, extend, time-bound, or resume stages.
package pipeline

import (
	"fmt"
	"time"

	"puffer/internal/cong"
	"puffer/internal/dp"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/router"
)

// Config configures the full PUFFER flow. It is the same type the root
// package exposes as puffer.Config (a type alias), so configurations move
// freely between the compatibility wrapper and the pipeline API.
type Config struct {
	// Place configures the global placement engine.
	Place place.Config
	// Strategy bundles every routability-optimizer strategy parameter.
	// Its Theta (θ of Eq. 17) is the legalization stage's one input.
	Strategy padding.Strategy
	// DP configures the post-legalization detailed placement. A flow's
	// finish is (Strategy.Theta, DP.PreservePadding).
	DP dp.Config
	// Workers caps the flow's data parallelism — the global-placement
	// inner loop, congestion estimation, feature extraction, and router
	// net decomposition (0 = GOMAXPROCS). Heavy-traffic deployments set it
	// to bound placement CPU usage; the parallel estimator merges shards
	// deterministically (reproducible for a fixed worker count), and the
	// GP inner loop is bit-deterministic for ANY worker count (DESIGN.md
	// §3e).
	Workers int
	// Logf, when non-nil, receives stage-by-stage progress lines. Excluded
	// from JSON (the run record embeds the Config) along with Obs.
	Logf func(format string, args ...any) `json:"-"`
	// Obs, when non-nil, attaches the unified telemetry recorder
	// (internal/obs) to the whole flow: the pipeline opens run and stage
	// trace spans, the engines beneath add optimizer-call/estimate/shard
	// spans and per-iteration metric series, and NewRecord snapshots the
	// registry into the run record. Nil — the default — keeps every
	// instrument on its nil fast path.
	Obs *obs.Recorder `json:"-"`
}

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config {
	return Config{
		Place:    place.DefaultConfig(),
		Strategy: padding.DefaultStrategy(),
		DP:       dp.Config{Passes: 2, WindowSites: 100, PreservePadding: true},
	}
}

// StageStats is the per-stage observability snapshot the pipeline records
// into Result.Stages after each executed stage.
type StageStats struct {
	// Name is the stage's Name().
	Name string `json:"name"`
	// Wall is the stage's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// Iters is the stage's own unit of work: GP iterations for the
	// placement stage, legalized cells for legalization, executed passes
	// for detailed placement, routed segments for the routing stage.
	// Custom stages report whatever they pass to RunContext.SetIters.
	Iters int `json:"iters"`
	// AllocsDelta is the number of heap objects allocated while the stage
	// ran (process-wide mallocs delta; concurrent allocators inflate it).
	AllocsDelta uint64 `json:"allocs_delta"`
	// Estimator, when non-nil, is a snapshot of the congestion estimator's
	// statistics (call count, last net/pin counts, per-phase wall time)
	// taken as the stage finished. The placement stage records it
	// whenever the routability optimizer ran.
	Estimator *cong.Stats `json:"estimator,omitempty"`
}

// Result reports a finished (or canceled) PUFFER run. It is the same type
// the root package exposes as puffer.Result (a type alias).
type Result struct {
	HPWL        float64      // legalized half-perimeter wirelength
	GP          place.Result // global placement summary
	Legal       legal.Result
	DP          dp.Result
	PaddingRuns []padding.RunInfo // one per GP round that ran (Round)
	PaddingArea float64
	Runtime     time.Duration
	StageLog    []string // Fig. 2 flow trace

	// Stages holds one StageStats per executed stage, in execution order,
	// accumulated across Run and Resume calls on the same Result.
	Stages []StageStats
	// Route is the evaluation-routing report when the stage list includes
	// Route(...); nil otherwise.
	Route *router.Result
}

// RunContext is the shared state one pipeline run threads through its
// stages: the design being placed, the configuration, the congestion grid
// dimensions, the lazily built routability optimizer, and the accumulating
// Result (including the structured stage log).
type RunContext struct {
	// Design is mutated in place by the stages.
	Design *netlist.Design
	// Cfg is the flow configuration the stages read.
	Cfg Config
	// GridW/GridH are the resolved congestion-grid dimensions.
	GridW, GridH int
	// Result accumulates stage outputs, the flow trace, and StageStats.
	Result *Result

	opt        *padding.Optimizer
	reuse      *place.Reuse
	stageIters int
	estStats   *cong.Stats
}

// NewRunContext validates d and builds the shared context for one run.
func NewRunContext(d *netlist.Design, cfg Config) (*RunContext, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	gw, gh := router.GridFor(d)
	// Propagate the flow-level worker cap into the engine layers that have
	// their own knob, unless the caller tuned them individually.
	if cfg.Workers != 0 {
		if cfg.Strategy.Cong.Workers == 0 {
			cfg.Strategy.Cong.Workers = cfg.Workers
		}
		if cfg.Strategy.Feat.Workers == 0 {
			cfg.Strategy.Feat.Workers = cfg.Workers
		}
		if cfg.Place.Workers == 0 {
			cfg.Place.Workers = cfg.Workers
		}
	}
	// The flow-level recorder reaches the placement engine through its own
	// Obs knob, unless the caller wired a different one deliberately.
	if cfg.Place.Obs == nil {
		cfg.Place.Obs = cfg.Obs
	}
	return &RunContext{Design: d, Cfg: cfg, GridW: gw, GridH: gh, Result: &Result{}}, nil
}

// Logf appends a line to the Result's flow trace and forwards it to the
// configured logger, if any.
func (rc *RunContext) Logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	rc.Result.StageLog = append(rc.Result.StageLog, line)
	if rc.Cfg.Logf != nil {
		rc.Cfg.Logf("%s", line)
	}
}

// SetIters reports the running stage's iteration count; the pipeline
// copies it into the stage's StageStats when the stage returns.
func (rc *RunContext) SetIters(n int) { rc.stageIters = n }

// SetEstimatorStats attaches a congestion-engine statistics snapshot to
// the running stage; the pipeline copies it into the stage's StageStats
// when the stage returns.
func (rc *RunContext) SetEstimatorStats(s cong.Stats) { rc.estStats = &s }

// PadOptimizer returns the run's routability optimizer, building it on
// first use. Stages share one optimizer so the padding history (pt(c) of
// Eq. 15) survives across stages — a second routability pass composed into
// a custom stage list recycles against the same history.
func (rc *RunContext) PadOptimizer() *padding.Optimizer {
	if rc.opt == nil {
		rc.opt = padding.NewOptimizer(rc.Design, rc.GridW, rc.GridH, rc.Cfg.Strategy)
		rc.opt.SetObs(rc.Cfg.Obs)
	}
	return rc.opt
}

// UsePadOptimizer injects a pre-existing routability optimizer — the ECO
// session path, where one optimizer (and its padding history) outlives
// many runs. It must be called before the first
// PadOptimizer use; the optimizer must have been built for rc.Design.
func (rc *RunContext) UsePadOptimizer(opt *padding.Optimizer) { rc.opt = opt }

// EngineReuse returns the warm engine state the placement stage harvested
// when the run finished (nil before the stage ran). An ECO session feeds
// it into the next run's place.Config.Reuse.
func (rc *RunContext) EngineReuse() *place.Reuse { return rc.reuse }

// SetEngineReuse records harvested engine state; the placement stage calls
// it after the engine runs.
func (rc *RunContext) SetEngineReuse(r *place.Reuse) { rc.reuse = r }
