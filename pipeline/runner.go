package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"puffer/internal/flow"
	"puffer/internal/netlist"
	"puffer/internal/obs"
)

// Re-exported error vocabulary, so pipeline callers need not import the
// internal flow package.
var (
	// ErrCanceled is wrapped by every error caused by context
	// cancellation anywhere in the flow.
	ErrCanceled = flow.ErrCanceled
)

// StageError carries the stage a failure (or cancel) occurred in; returned
// by Pipeline.Run wrapped around the engine error.
type StageError = flow.StageError

// Pipeline runs an ordered stage list over one RunContext.
type Pipeline struct {
	stages []Stage

	// OnStage, when non-nil, observes each executed stage's stats with
	// the error the stage ended on: nil for a stage that completed, after
	// the Checkpointer has received its checkpoint; the engine or
	// checkpoint error (wrapping ErrCanceled for a cancel or deadline) for
	// one that failed or was cut mid-way.
	OnStage func(StageStats, error)
	// Checkpointer, when non-nil, receives a Checkpoint after every
	// successfully completed stage. Returning an error aborts the run —
	// a job server that cannot persist its checkpoint must not pretend
	// the stage boundary is durable.
	Checkpointer func(*Checkpoint) error
}

// New builds a pipeline over the given stages; with no arguments it runs
// the default Fig. 2 stage list.
func New(stages ...Stage) *Pipeline {
	if len(stages) == 0 {
		stages = Default()
	}
	return &Pipeline{stages: stages}
}

// Run executes every stage in order against rc. The context is consulted
// before each stage and threaded into every stage; on failure the error is
// a *StageError naming the stage, wrapping the engine error (which wraps
// ErrCanceled when the cause was cancellation). Result.Runtime — the sum
// of the executed stages' walls — HPWL and PaddingArea are updated even on
// early exit, so a canceled run still reports what it did.
func (p *Pipeline) Run(ctx context.Context, rc *RunContext) error {
	return p.runFrom(ctx, rc, 0)
}

// Resume applies cp to rc.Design and executes only the stages after
// cp.Stage. With identical configuration and design, resuming a
// checkpoint taken after stage S reproduces the uninterrupted run's final
// placement exactly: the captured positions, padding, and net weights are
// the complete cross-stage state. A checkpoint after Route holds the
// finished placement but not its verdict: it resumes by routing again, or
// runs nothing in a list without Route.
func (p *Pipeline) Resume(ctx context.Context, rc *RunContext, cp *Checkpoint) error {
	start := -1
	for i, st := range p.stages {
		if st.Name() == cp.Stage {
			start = i + 1
			break
		}
	}
	if cp.Stage == StageRoute {
		start--
		if start < 0 {
			start = len(p.stages)
		}
	}
	if start < 0 {
		return fmt.Errorf("pipeline: checkpoint stage %q not in stage list", cp.Stage)
	}
	if err := cp.Apply(rc.Design); err != nil {
		return fmt.Errorf("pipeline: resume: %w", err)
	}
	rc.Logf("stage: resumed from checkpoint after %q (%d cells)", cp.Stage, len(cp.X))
	return p.runFrom(ctx, rc, start)
}

func (p *Pipeline) runFrom(ctx context.Context, rc *RunContext, start int) error {
	// The run span roots the trace; every stage gets a child span carried
	// in the stage's context, under which the engines open their own
	// optimizer-call, estimate, and shard spans.
	runSpan, ctx := obs.Start(ctx, rc.Cfg.Obs, "run")
	defer runSpan.End()
	defer func() {
		rc.Result.HPWL = rc.Design.HPWL()
		rc.Result.PaddingArea = rc.Design.TotalPaddingArea()
	}()
	for _, st := range p.stages[start:] {
		if err := flow.Check(ctx); err != nil {
			return &StageError{Stage: st.Name(), Err: err}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rc.stageIters = 0
		rc.estStats = nil
		stageSpan := runSpan.Child("stage." + st.Name())
		stageStart := time.Now()
		err := st.Run(obs.ContextWith(ctx, stageSpan), rc)
		wall := time.Since(stageStart)
		if stageSpan != nil {
			stageSpan.SetArg("iters", rc.stageIters)
		}
		stageSpan.End()
		runtime.ReadMemStats(&after)
		stats := StageStats{
			Name:        st.Name(),
			Wall:        wall,
			Iters:       rc.stageIters,
			AllocsDelta: after.Mallocs - before.Mallocs,
			Estimator:   rc.estStats,
		}
		rc.Result.Stages = append(rc.Result.Stages, stats)
		rc.Result.Runtime += wall
		// A stage that succeeded is durable before it is announced: an
		// observer told "stage S done" can already fetch S's checkpoint.
		if err == nil && p.Checkpointer != nil {
			if cerr := p.Checkpointer(Capture(st.Name(), rc.Design)); cerr != nil {
				err = fmt.Errorf("checkpoint: %w", cerr)
			}
		}
		if p.OnStage != nil {
			p.OnStage(stats, err)
		}
		if err != nil {
			return &StageError{Stage: st.Name(), Err: err}
		}
	}
	return nil
}

// Execute is the one-call convenience: build a RunContext for d, run the
// default pipeline under ctx, and return the Result. puffer.Run delegates
// here with a background context.
func Execute(ctx context.Context, d *netlist.Design, cfg Config) (*Result, error) {
	rc, err := NewRunContext(d, cfg)
	if err != nil {
		return nil, err
	}
	if err := New().Run(ctx, rc); err != nil {
		return rc.Result, err
	}
	return rc.Result, nil
}
