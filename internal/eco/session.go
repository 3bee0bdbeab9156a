package eco

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"puffer/internal/cong"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/pipeline"
)

// ErrNotPlaced is returned by Apply before the session has a base
// placement (Place has not run, or the session was not restored from a
// snapshot).
var ErrNotPlaced = errors.New("eco: session has no base placement")

// ErrBadDelta wraps every Apply rejection that happens before the delta
// touches the design — empty deltas and Validate failures. Callers can
// rely on the session's warm state being untouched when errors.Is reports
// this; any other Apply error may leave a partially re-placed design.
var ErrBadDelta = errors.New("eco: invalid delta")

// Options tunes the warm re-placement a Session runs per delta. The zero
// value selects defaults derived from the cold configuration.
type Options struct {
	// WarmMaxIters caps GP iterations of a warm re-place; 0 derives
	// max(40, cold MaxIters / 5).
	WarmMaxIters int
	// WarmMinIters is the warm run's MinIters; 0 selects 8. Warm runs
	// start from a near-solution, so the cold engine's long mandatory
	// burn-in would dominate the delta latency for nothing.
	WarmMinIters int
}

func (o Options) warmMax(coldMax int) int {
	if o.WarmMaxIters > 0 {
		return o.WarmMaxIters
	}
	m := coldMax / 5
	if m < 40 {
		m = 40
	}
	return m
}

func (o Options) warmMin() int {
	if o.WarmMinIters > 0 {
		return o.WarmMinIters
	}
	return 8
}

// Session owns one design across an ECO conversation and keeps only
// results: the design itself (mutated in place by deltas and
// re-placements), the shared routability optimizer with its padding history
// (pt(c) of Eq. 15), the delta count and the last run's summary. Place runs
// the cold pipeline once; Apply then warm-starts GP from the previous
// placement and re-enters the staged pipeline per delta. Every run builds
// its placement engine afresh, so no engine state outlives a run and a
// delta never has to invalidate any.
//
// Ownership (DESIGN.md §3g): the Session is the sole owner of its design —
// callers must not mutate it between calls.
//
// All methods are safe for concurrent use; they serialize on one mutex
// (the session is inherently single-writer).
type Session struct {
	mu   sync.Mutex
	d    *netlist.Design
	cfg  pipeline.Config
	opts Options

	opt *padding.Optimizer

	placed       bool
	deltas       int
	lastHPWL     float64
	lastOverflow float64
	estStats     *cong.Stats
}

// New opens a session over d with the given cold-run configuration. The
// session takes ownership of d.
func New(d *netlist.Design, cfg pipeline.Config, opts Options) (*Session, error) {
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{d: d, cfg: cfg, opts: opts, opt: rc.PadOptimizer()}, nil
}

// Design returns the session's design. The session owns it — read-only
// for callers, and racy while a Place/Apply is in flight.
func (s *Session) Design() *netlist.Design { return s.d }

// Deltas reports how many deltas the session has applied.
func (s *Session) Deltas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas
}

// LastHPWL reports the HPWL of the most recent placement (0 before Place).
func (s *Session) LastHPWL() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastHPWL
}

// Place runs the cold pipeline once to establish the base placement. It
// must be called (or the session restored from a snapshot) before Apply.
func (s *Session) Place(ctx context.Context) (*pipeline.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.placed {
		return nil, errors.New("eco: session already has a base placement")
	}
	rc, err := pipeline.NewRunContext(s.d, s.cfg)
	if err != nil {
		return nil, err
	}
	rc.UsePadOptimizer(s.opt)
	if err := pipeline.New().Run(ctx, rc); err != nil {
		return rc.Result, err
	}
	s.placed = true
	s.harvest(rc)
	return rc.Result, nil
}

// Apply atomically applies dl to the design and re-places it: the previous
// placement seeds GP (WarmStart) and the session's optimizer keeps its
// padding history. The pipeline stages (place, legalize, dp) run as in a
// cold run, so the result honors the same legality contract. On error the
// design may hold partially re-placed positions; the session stays usable —
// the next Apply re-enters from whatever state the design is in.
func (s *Session) Apply(ctx context.Context, dl *Delta) (*pipeline.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.placed {
		return nil, ErrNotPlaced
	}
	if dl == nil || dl.Empty() {
		return nil, fmt.Errorf("%w: empty delta", ErrBadDelta)
	}
	if err := dl.Validate(s.d); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	// The delta span roots this warm re-place in the session's trace: the
	// padding refresh and the pipeline's "run" tree nest under it, so a
	// spooled session trace reads as base placement followed by one
	// eco.apply subtree per delta.
	span, ctx := obs.Start(ctx, s.cfg.Obs, "eco.apply")
	defer span.End()
	span.SetArg("moves", len(dl.Moves))
	span.SetArg("resizes", len(dl.Resizes))
	span.SetArg("weights", len(dl.Weights))
	span.SetArg("padding", len(dl.Padding))
	dl.apply(s.d)
	s.opt.ReArm()

	rc, err := pipeline.NewRunContext(s.d, s.warmConfig())
	if err != nil {
		return nil, err
	}
	rc.UsePadOptimizer(s.opt)
	// One padding refresh against the delta before GP re-entry: the
	// optimizer recycles stale padding and folds in any overrides the
	// delta seeded. In-loop triggering during the warm run then follows
	// the usual τ/η/ξ/cooldown rules.
	info, err := s.opt.RunCtx(ctx)
	if err != nil {
		return rc.Result, fmt.Errorf("eco: delta padding refresh: %w", err)
	}
	rc.Result.PaddingRuns = append(rc.Result.PaddingRuns, info)

	if err := pipeline.New().Run(ctx, rc); err != nil {
		return rc.Result, err
	}
	s.deltas++
	s.harvest(rc)
	return rc.Result, nil
}

// warmConfig derives the per-delta pipeline configuration from the cold
// one: warm-started GP with the iteration budget cut to the warm caps.
func (s *Session) warmConfig() pipeline.Config {
	cfg := s.cfg
	p := &cfg.Place
	p.WarmStart = true
	p.MaxIters = s.opts.warmMax(p.MaxIters)
	p.MinIters = s.opts.warmMin()
	// A warm run starts on a plateau by construction — the previous
	// placement was converged — so the cold plateau window would let it
	// idle for dozens of iterations. A short window stops it as soon as
	// the delta is absorbed and overflow stops improving.
	if p.PlateauIters > 12 {
		p.PlateauIters = 12
	}
	return cfg
}

// harvest records the finished run's summary.
func (s *Session) harvest(rc *pipeline.RunContext) {
	s.lastHPWL = rc.Result.HPWL
	s.lastOverflow = rc.Result.GP.Overflow
	if s.opt.Iter() > 0 {
		st := s.opt.Estimator().Stats()
		s.estStats = &st
	}
}
