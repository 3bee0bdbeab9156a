package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	puffer "puffer"
	"puffer/internal/cas"
	"puffer/internal/explore"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/serve"
	"puffer/internal/xfarm"
)

// The exploration farm: a Distributed explore job does not dispatch to a
// worker — it runs as an xfarm controller inside the coordinator, and every
// TPE trial the controller schedules is submitted back through the core's
// one admission path as its own place job. Trials therefore get the full
// fleet treatment for free: content-addressed result caching (identical
// trial configs dedupe, and a resumed exploration re-runs zero finished
// placements), least-loaded engine-matched dispatch, checkpoint-mirrored
// failover, and relayed progress the controller taps for early-stop samples.
//
// Durability: the controller checkpoints a puffer/explore-state/v1 manifest
// into the exploration job's artifact dir after every observation. A
// SIGKILLed coordinator restarts the controller from that artifact at boot,
// finished trials replay or cache-hit, and in-flight trials — re-attached
// by the core's recovery like any dispatched job — are awaited by ID.

// ExploreStateArtifact is the spooled checkpoint name of a distributed
// exploration (downloadable like any other artifact).
const ExploreStateArtifact = "explore-state.json"

// Explore drives one distributed exploration to an outcome under the
// core's job lifecycle: canceled by a client it ends canceled; stopped by
// a coordinator shutdown it reports itself detached, so the manifest stays
// running and the next boot restarts the controller from the last
// checkpoint.
func (c *Server) Explore(ctx context.Context, j *serve.Job) serve.Outcome {
	m := j.M
	start := time.Now()

	// A spooled checkpoint from an interrupted attempt resumes the schedule.
	var prev *xfarm.State
	if path, perr := c.Spool().ArtifactPath(m.ID, ExploreStateArtifact); perr == nil {
		if data, rerr := os.ReadFile(path); rerr == nil {
			st, serr := xfarm.ParseState(data)
			switch {
			case serr != nil:
				c.log.Warn("explore checkpoint unreadable; starting fresh", "job", m.ID, "error", serr)
			case st.Seed != m.Spec.Seed || st.Budget != m.Spec.Budget:
				c.log.Warn("explore checkpoint is for a different run; starting fresh",
					"job", m.ID, "seed", st.Seed, "budget", st.Budget)
			default:
				prev = st
				c.log.Info("resuming exploration from checkpoint",
					"job", m.ID, "attempt", st.Attempts+1, "trials", len(st.Trials))
			}
		}
	}

	// The controller's per-trial scores (explore.trial.score) stream to
	// the job's watchers.
	rec := obs.NewRecorder(nil, obs.NewRegistry(serve.HubSink(j.Hub)))
	res, runErr := xfarm.Run(ctx, xfarm.Config{
		Params:       puffer.StrategyParams(),
		Budget:       m.Spec.Budget,
		Seed:         m.Spec.Seed,
		DesignDigest: m.DesignDigest,
		Job:          m.ID,
		EarlyStop:    m.Spec.EarlyStop,
		Margin:       c.cfg.EarlyStopMargin,
		Backend:      &farmBackend{c: c, parent: m},
		Checkpoint: func(st *xfarm.State) error {
			data, err := st.Encode()
			if err != nil {
				return err
			}
			return c.Spool().WriteArtifact(m.ID, ExploreStateArtifact, data)
		},
		Logf: func(format string, args ...any) {
			j.Hub.Publish(serve.Event{Type: "log", Line: fmt.Sprintf(format, args...)})
		},
		Obs: rec,
	}, prev)

	switch {
	case runErr == nil:
	case errors.Is(context.Cause(ctx), serve.ErrCanceled):
		return serve.Outcome{State: serve.StateCanceled, Error: serve.ErrCanceled.Error()}
	case ctx.Err() != nil:
		c.log.Info("exploration parked by shutdown", "job", m.ID)
		return serve.Outcome{State: serve.StateRunning}
	default:
		return serve.Outcome{State: serve.StateFailed, Error: runErr.Error()}
	}

	final := padding.DefaultStrategy()
	puffer.ApplyAssignment(&final, res.Final)
	if data, err := json.MarshalIndent(final, "", "  "); err == nil {
		if werr := c.Spool().WriteArtifact(m.ID, "strategy.json", append(data, '\n')); werr != nil {
			c.log.Warn("strategy artifact write failed", "job", m.ID, "error", werr)
		}
	}
	result := &serve.JobResult{
		Trials:    res.Trials,
		BestScore: res.BestScore,
		RuntimeMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	c.log.Info("exploration finished", "job", m.ID, "trials", res.Trials,
		"best_score", res.BestScore, "cache_hits", res.CacheHits,
		"replayed", res.Replayed, "canceled", res.Canceled,
		"attempts", res.State.Attempts)
	out := serve.Outcome{State: serve.StateDone, Result: result}
	// Only deterministic explorations land in the result cache: early stop
	// makes the scores depend on fleet timing, so its results must never
	// answer a future submission.
	if !m.Spec.EarlyStop {
		out.ResultDigest = resultDigest(m, result)
	}
	return out
}

// farmBackend implements xfarm.Backend over the core: a trial is an
// ordinary submission (so it is content addressed, cache checked, queued,
// dispatched and failed over like any job), awaited and tapped through its
// progress hub.
type farmBackend struct {
	c      *Server
	parent *serve.Manifest

	once  sync.Once // loads an uploaded parent design from the store
	files map[string]string
	err   error
}

// Submit turns one TPE trial into a place job: the parent exploration's
// design, the candidate strategy as the job's strategy document, and the
// evaluation-routing stage appended so the job's result carries the
// objective (HOF + VOF) the sampler scores.
func (b *farmBackend) Submit(ctx context.Context, t explore.Trial) (string, error) {
	strat := padding.DefaultStrategy()
	puffer.ApplyAssignment(&strat, t.X)
	sj, err := json.Marshal(strat)
	if err != nil {
		return "", err
	}
	if blobBacked(b.parent) {
		b.once.Do(func() {
			var blob []byte
			if blob, b.err = b.c.store.Blob(cas.Digest(b.parent.DesignDigest)); b.err == nil {
				b.files, b.err = cas.DecodeBookshelf(blob)
			}
		})
		if b.err != nil {
			return "", b.err
		}
	}
	m, err := b.c.Submit(serve.JobSpec{
		Kind:       serve.KindPlace,
		Profile:    b.parent.Spec.Profile,
		Bookshelf:  b.files,
		Scale:      b.parent.Spec.Scale,
		Seed:       b.parent.Spec.Seed,
		MaxIters:   b.parent.Spec.MaxIters,
		Route:      true,
		Strategy:   sj,
		TimeoutSec: b.parent.Spec.TimeoutSec,
		// The parent's NoCache is deliberately NOT inherited: it bypasses
		// the exploration-level result cache (force a fresh controller
		// run), while per-trial dedupe through the result index is the
		// farm's architecture — it is what makes resume replays and
		// re-explorations of a known design family cheap.
	}, serve.Origin{Tenant: b.parent.Tenant, TraceParent: b.parent.TraceParent, Parent: b.parent.ID})
	if err != nil {
		return "", err
	}
	return m.ID, nil
}

// Await follows the trial's progress hub until the core ends it — which it
// does only after the terminal manifest is durable — then reads the verdict.
func (b *farmBackend) Await(ctx context.Context, jobID string) (xfarm.TrialOutcome, error) {
	if _, live, cancel, ok := b.c.Watch(jobID); ok {
		defer cancel()
		for open := true; open; {
			select {
			case _, open = <-live:
			case <-ctx.Done():
				return xfarm.TrialOutcome{}, context.Cause(ctx)
			}
		}
	}
	m, err := b.c.Spool().ReadManifest(jobID)
	if err != nil {
		return xfarm.TrialOutcome{}, err
	}
	switch m.State {
	case serve.StateDone:
		res := m.Result
		if res == nil {
			return xfarm.TrialOutcome{}, fmt.Errorf("trial %s finished without a result", jobID)
		}
		return xfarm.TrialOutcome{Score: res.HOF + res.VOF, CacheHit: m.CacheHit}, nil
	case serve.StateCanceled:
		return xfarm.TrialOutcome{Canceled: true}, nil
	default:
		return xfarm.TrialOutcome{}, fmt.Errorf("trial %s ended %s: %s", jobID, m.State, m.Error)
	}
}

// Cancel requests mid-flight cancellation of a dominated trial.
func (b *farmBackend) Cancel(jobID, reason string) error {
	_, err := b.c.Cancel(jobID, reason)
	return err
}

// WatchOverflow taps the trial's hub for place.overflow samples — the
// worker's, relayed by the remote backend, across failovers.
func (b *farmBackend) WatchOverflow(ctx context.Context, jobID string, fn func(step int, overflow float64)) {
	replay, live, cancel, ok := b.c.Watch(jobID)
	if !ok {
		return
	}
	defer cancel()
	tap := func(e serve.Event) {
		if e.Type == "sample" && e.Series == "place.overflow" {
			fn(e.Step, e.Value)
		}
	}
	for _, e := range replay {
		tap(e)
	}
	for {
		select {
		case e, open := <-live:
			if !open {
				return
			}
			tap(e)
		case <-ctx.Done():
			return
		}
	}
}
