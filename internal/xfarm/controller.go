package xfarm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"puffer/internal/explore"
	"puffer/internal/obs"
)

// Infeasible is the objective value assigned to trials that fail or are
// early-stopped: the same sentinel the in-process objective uses for a
// placement that errors, so TPE treats both as maximally bad regions.
const Infeasible = 1e9

// TrialOutcome is the terminal result of one dispatched trial job.
type TrialOutcome struct {
	// Score is the objective value (total overflow ratio); meaningless
	// when Canceled.
	Score float64
	// CacheHit reports that the fleet answered from the result index
	// without running a placement (how resumed trials come back free).
	CacheHit bool
	// Canceled reports the job ended by cancellation (early stop).
	Canceled bool
}

// Backend runs trials for the controller. The coordinator implements it
// over job dispatch; tests implement it in memory. All methods must be
// goroutine-safe: relevance groups explore concurrently.
type Backend interface {
	// Submit dispatches the trial as a place job and returns its job ID.
	Submit(ctx context.Context, t explore.Trial) (string, error)
	// Await blocks until the job is terminal. A non-nil error means the
	// outcome is unknowable (job vanished, backend down) — the controller
	// scores the trial infeasible unless the context itself is done.
	Await(ctx context.Context, jobID string) (TrialOutcome, error)
	// Cancel requests mid-flight cancellation; the job's Await then
	// reports Canceled. Cancel is advisory: a job that finishes first
	// simply wins the race.
	Cancel(jobID, reason string) error
	// WatchOverflow streams the job's intermediate overflow samples
	// (one per global-placement iteration) to fn until the job ends or
	// ctx is done. Implementations without live samples may return
	// immediately.
	WatchOverflow(ctx context.Context, jobID string, fn func(step int, overflow float64))
}

// Config parameterizes one exploration farm run.
type Config struct {
	// Params is the searched parameter space (e.g. puffer.StrategyParams).
	Params []explore.Param
	// Budget is TC of Algorithm 2 (trials per exploration call; default 8).
	Budget int
	// Seed drives the deterministic trial schedule.
	Seed int64
	// DesignDigest stamps the state manifest (provenance only).
	DesignDigest string
	// Job stamps the state manifest with the controlling job ID.
	Job string
	// EarlyStop enables competitive mid-flight cancellation: a trial
	// whose streamed overflow is dominated by the best competitor at the
	// same step is canceled and scored infeasible. Off by default — it
	// trades schedule determinism for wall clock.
	EarlyStop bool
	// Margin is the domination factor for early stop (default 1.5): a
	// trial is canceled when its overflow exceeds Margin × the best
	// overflow any trial has shown at that step, by at least MinGap.
	Margin float64
	// MinGap is the absolute overflow slack under which no trial is ever
	// canceled (default 0.05), guarding the near-converged tail.
	MinGap float64
	// MinStep is the earliest sample step eligible for cancellation
	// (default 5): early iterations are too noisy to compare.
	MinStep int
	// WarmStart marks that Priors/SeedRanges came from prior runs
	// (recorded in the manifest for provenance).
	WarmStart bool
	// Priors seed the global pass's TPE observations.
	Priors []explore.Observation
	// SeedRanges narrow the starting parameter ranges.
	SeedRanges map[string]explore.Range
	// Backend runs the trials. Required.
	Backend Backend
	// Checkpoint persists the state manifest; it is called after every
	// submission, observation, and range merge, serialized by the
	// controller. Nil disables checkpointing.
	Checkpoint func(*State) error
	Logf       func(format string, args ...any)
	// Obs receives the explorer's trial telemetry plus the farm counters
	// (xfarm.trials_replayed, xfarm.trials_canceled, xfarm.cache_hits).
	Obs *obs.Recorder
}

// Result is the outcome of a completed farm run.
type Result struct {
	// Final is Algorithm 3's tuned configuration (range medians).
	Final explore.Assignment
	// Best is the best single observation.
	Best explore.Assignment
	// BestScore is Best's objective value.
	BestScore float64
	// Trials is how many observations the schedule made.
	Trials int
	// Replayed counts trials answered from a resume checkpoint without a
	// fresh submission (in-flight re-attaches and terminal replays).
	Replayed int
	// CacheHits counts submitted trials the fleet served from the result
	// index.
	CacheHits int
	// Canceled counts early-stopped trials.
	Canceled int
	// State is the final manifest (also written through Checkpoint).
	State *State
}

// controller is the runtime of one Run call.
type controller struct {
	cfg  Config
	env  *envelope
	prev map[trialKey]TrialRecord

	mu    sync.Mutex
	state State
	byKey map[trialKey]int // trial identity -> index into state.Trials
	seq   int

	replayed  int
	cacheHits int
	canceled  int
}

// Run executes the distributed exploration to completion. prev, when
// non-nil, is a parsed checkpoint of an interrupted run of the same
// (seed, budget, design): finished trials replay their scores, in-flight
// trials re-attach by job ID, and everything else resubmits — where the
// fleet's result cache answers any placement that already ran.
func Run(ctx context.Context, cfg Config, prev *State) (*Result, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("xfarm: no backend")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 8
	}
	if cfg.Margin <= 1 {
		cfg.Margin = 1.5
	}
	if cfg.MinGap <= 0 {
		cfg.MinGap = 0.05
	}
	if cfg.MinStep <= 0 {
		cfg.MinStep = 5
	}
	c := &controller{
		cfg:   cfg,
		env:   &envelope{min: map[int]float64{}, margin: cfg.Margin, gap: cfg.MinGap, minStep: cfg.MinStep},
		prev:  map[trialKey]TrialRecord{},
		byKey: map[trialKey]int{},
		state: State{
			Format:       StateFormat,
			Job:          cfg.Job,
			DesignDigest: cfg.DesignDigest,
			Seed:         cfg.Seed,
			Budget:       cfg.Budget,
			Attempts:     1,
			EarlyStop:    cfg.EarlyStop,
			WarmStart:    cfg.WarmStart,
		},
	}
	if prev != nil {
		c.state.Attempts = prev.Attempts + 1
		for _, t := range prev.Trials {
			c.prev[trialKey{t.Round, t.Group, t.Index}] = t
		}
	}
	ex := &explore.Explorer{
		Params: cfg.Params,
		// Algorithm 2/3 knobs mirror the in-process explorer
		// (puffer.ExploreStrategyOpts) exactly, so the trial schedule —
		// and therefore the per-trial config digests — match.
		TimeLimit:  cfg.Budget,
		EarlyStop:  maxInt(cfg.Budget/3, 5),
		Rounds:     2,
		Parallel:   true,
		Seed:       cfg.Seed,
		Logf:       cfg.Logf,
		Obs:        cfg.Obs,
		Priors:     cfg.Priors,
		SeedRanges: cfg.SeedRanges,
		Evaluate:   c.evaluate,
		Snapshot:   c.snapshotRanges,
	}
	c.checkpoint()
	final, best, err := ex.RunCtx(ctx)
	if err != nil {
		// Leave the last checkpoint in place: the next attempt resumes it.
		return nil, err
	}
	bestScore := Infeasible
	trials := 0
	for _, o := range ex.History() {
		trials++
		if o.Y < bestScore {
			bestScore = o.Y
		}
	}
	c.mu.Lock()
	c.state.Best = map[string]float64(best)
	c.state.BestScore = bestScore
	c.mu.Unlock()
	c.checkpoint()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state // shallow copy is fine: the run is over, nothing mutates it
	return &Result{
		Final:     final,
		Best:      best,
		BestScore: bestScore,
		Trials:    trials,
		Replayed:  c.replayed,
		CacheHits: c.cacheHits,
		Canceled:  c.canceled,
		State:     &st,
	}, nil
}

// evaluate is the Explorer's Evaluate hook: one trial end to end.
func (c *controller) evaluate(ctx context.Context, t explore.Trial) (float64, error) {
	key := trialKey{t.Round, t.Group, t.Index}
	if rec, ok := c.prev[key]; ok && sameAssignment(rec.X, t.X) {
		switch rec.State {
		case TrialDone:
			// Resubmit below: the fleet's result index answers it without
			// running (and the cache-hit count proves zero replays).
		case TrialCanceled, TrialFailed:
			// Terminal without a cacheable result; replay the recorded
			// score rather than re-running a placement we chose to kill.
			c.record(t, rec.JobID, rec.State, rec.Score, rec.CacheHit, rec.EarlyStopped, true)
			c.cfg.Obs.Counter("xfarm.trials_replayed").Inc()
			return rec.Score, nil
		case TrialSubmitted:
			if rec.JobID != "" {
				// Still in flight when the last controller died; re-attach.
				out, err := c.cfg.Backend.Await(ctx, rec.JobID)
				if err == nil {
					c.cfg.Obs.Counter("xfarm.trials_replayed").Inc()
					return c.finish(t, rec.JobID, out, true), nil
				}
				if ctx.Err() != nil {
					return 0, err
				}
				// The job is gone (worker wiped, spool pruned): fall
				// through to a fresh submission.
			}
		}
	}

	jobID, err := c.cfg.Backend.Submit(ctx, t)
	if err != nil {
		return 0, err
	}
	c.record(t, jobID, TrialSubmitted, 0, false, false, false)

	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	if c.cfg.EarlyStop {
		go c.cfg.Backend.WatchOverflow(watchCtx, jobID, func(step int, v float64) {
			if c.env.observe(step, v) {
				// Dominated: free the worker slot now. Advisory — if the
				// job beats the cancel to the finish line, its real score
				// stands.
				_ = c.cfg.Backend.Cancel(jobID, "dominated by competing trial")
			}
		})
	}

	out, err := c.cfg.Backend.Await(ctx, jobID)
	if err != nil {
		if ctx.Err() != nil {
			return 0, err
		}
		// Unknowable outcome: score it infeasible and keep exploring —
		// one lost trial must not sink the whole exploration.
		if c.cfg.Logf != nil {
			c.cfg.Logf("xfarm: trial %s lost (%v); scoring infeasible", jobID, err)
		}
		c.record(t, jobID, TrialFailed, Infeasible, false, false, false)
		return Infeasible, nil
	}
	return c.finish(t, jobID, out, false), nil
}

// finish classifies a terminal outcome, records it, and returns the score
// the sampler sees.
func (c *controller) finish(t explore.Trial, jobID string, out TrialOutcome, replayed bool) float64 {
	switch {
	case out.Canceled:
		c.mu.Lock()
		c.canceled++
		c.mu.Unlock()
		c.cfg.Obs.Counter("xfarm.trials_canceled").Inc()
		c.record(t, jobID, TrialCanceled, Infeasible, false, true, replayed)
		return Infeasible
	default:
		if out.CacheHit {
			c.cfg.Obs.Counter("xfarm.cache_hits").Inc()
		}
		c.env.complete()
		c.record(t, jobID, TrialDone, out.Score, out.CacheHit, false, replayed)
		return out.Score
	}
}

// record upserts the trial's manifest row and checkpoints.
func (c *controller) record(t explore.Trial, jobID, state string, score float64, cacheHit, earlyStopped, replayed bool) {
	c.mu.Lock()
	key := trialKey{t.Round, t.Group, t.Index}
	i, ok := c.byKey[key]
	if !ok {
		i = len(c.state.Trials)
		c.byKey[key] = i
		c.seq++
		c.state.Trials = append(c.state.Trials, TrialRecord{
			Seq: c.seq, Round: t.Round, Group: t.Group, Index: t.Index,
			X: map[string]float64(t.X),
		})
	}
	rec := &c.state.Trials[i]
	rec.JobID = jobID
	rec.State = state
	rec.Score = score
	rec.CacheHit = cacheHit
	rec.EarlyStopped = earlyStopped
	if state == TrialDone && (c.state.Best == nil || score < c.state.BestScore) {
		c.state.BestScore = score
		c.state.Best = map[string]float64(t.X)
	}
	if replayed {
		c.replayed++
	}
	if cacheHit {
		c.cacheHits++
	}
	c.mu.Unlock()
	c.checkpoint()
}

// snapshotRanges mirrors the explorer's merged ranges into the manifest.
func (c *controller) snapshotRanges(ranges map[string]explore.Range) {
	c.mu.Lock()
	c.state.Ranges = make(map[string]RangeRec, len(ranges))
	for k, r := range ranges {
		c.state.Ranges[k] = RangeRec{Lo: r.Lo, Hi: r.Hi}
	}
	c.mu.Unlock()
	c.checkpoint()
}

// checkpoint persists a consistent copy of the state. Serialized by ckMu
// so manifest writes never interleave; errors are logged, not fatal — a
// missed checkpoint only costs resume granularity.
func (c *controller) checkpoint() {
	if c.cfg.Checkpoint == nil {
		return
	}
	c.mu.Lock()
	cp := c.state
	cp.Trials = append([]TrialRecord(nil), c.state.Trials...)
	cp.UpdatedAt = time.Now().UTC()
	c.mu.Unlock()
	if err := c.cfg.Checkpoint(&cp); err != nil && c.cfg.Logf != nil {
		c.cfg.Logf("xfarm: checkpoint failed: %v", err)
	}
}

// envelope tracks the fleet-wide minimum overflow per sample step; a trial
// observing a value far above the envelope is dominated (Algorithm 2's
// early stop, made competitive across concurrent trials).
type envelope struct {
	mu        sync.Mutex
	min       map[int]float64
	completed int
	margin    float64
	gap       float64
	minStep   int
}

// observe folds one sample in and reports whether its trial is dominated.
// No trial is ever canceled before at least one competitor has finished —
// the early leader must not be killed by its own noise.
func (e *envelope) observe(step int, v float64) (dominated bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.min[step]; !ok || v < cur {
		e.min[step] = v
	}
	if e.completed == 0 || step < e.minStep {
		return false
	}
	best := e.min[step]
	return v > e.margin*best && v-best > e.gap
}

func (e *envelope) complete() {
	e.mu.Lock()
	e.completed++
	e.mu.Unlock()
}

// sameAssignment compares trial assignments exactly. JSON round-trips
// float64 losslessly, so a checkpointed assignment either matches the
// deterministic schedule bit-for-bit or the checkpoint belongs to a
// different (seed, budget, priors) run and must not be replayed.
func sameAssignment(a map[string]float64, b explore.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[k]
		if !ok || bv != v {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
