package serve

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"puffer/internal/obs"
)

// Cancellation causes of a running job's context, distinguished through
// context.Cause so a run can tell a drain from a client cancel.
var (
	// ErrParked: the server is draining; the job parks at its last
	// checkpoint.
	ErrParked = errors.New("daemon draining: job parked")
	// ErrCanceled: a client canceled the job.
	ErrCanceled = errors.New("job canceled by client")
)

// Job is one claimed job handed to a run: the manifest as claimed
// (read-only) and the hub its progress is published into.
type Job struct {
	M   *Manifest
	Hub *Hub
}

// Outcome is what a run reports when it returns: done, failed or canceled
// (the manifest is finalized and the stream ends), parked (the next boot
// re-admits the job) or, for a session whose base placement finished, open
// (the stream goes on with its deltas).
type Outcome struct {
	State JobState
	// Error is the failure or cancel message.
	Error  string
	Result *JobResult
}

// errSkipJob marks a popped queue entry whose manifest is no longer
// queued (canceled while waiting).
var errSkipJob = errors.New("serve: job no longer queued")

// schedule is the one loop between queue and worker pool: take a slot, pop
// a job, run it.
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		select {
		case s.slots <- struct{}{}:
		case <-s.schedCtx.Done():
			return
		}
		release := func() { <-s.slots }
		id, ok := s.queue.Pop()
		if !ok || s.Draining() {
			// Leave the job spooled as queued; the next boot re-admits it.
			release()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer release()
			s.runJob(id)
		}()
	}
}

// runJob owns one job's lifecycle around its run: claim, cancel
// registration, the running event, then — once the run returns — the
// durable manifest transition, and only after it the state event watchers
// act on. The worker slot is released when runJob returns, an open
// session's included.
func (s *Server) runJob(id string) {
	start := time.Now()
	m, err := s.spool.Update(id, func(mm *Manifest) error {
		if mm.State != StateQueued {
			return errSkipJob
		}
		mm.State = StateRunning
		mm.StartedAt = &start
		mm.Attempts++
		return nil
	})
	if err != nil {
		if !errors.Is(err, errSkipJob) {
			s.log.Error("job claim failed", "job", id, "error", err)
		}
		return
	}

	a := s.ensureJob(id)
	ctx, untrack := s.track(a, s.baseCtx)
	ctx = obs.ContextWithLabels(ctx, slog.String("job", id))

	queueWait := start.Sub(m.SubmittedAt)
	if queueWait < 0 {
		queueWait = 0
	}
	s.hQueueWait.Observe(queueWait.Seconds())
	a.hub.Publish(Event{Type: "state", State: StateRunning})
	s.log.InfoContext(ctx, "job running",
		"kind", m.Spec.Kind, "attempt", m.Attempts,
		"queue_wait", queueWait.Round(time.Millisecond))

	out := s.run(ctx, &Job{M: m, Hub: a.hub})

	if out.Result != nil {
		out.Result.Artifacts = s.listArtifacts(id)
	}
	now := time.Now()
	if _, err := s.spool.Update(id, func(mm *Manifest) error {
		if out.State == StateOpen && ctx.Err() != nil {
			// Canceled or drained as its base placement finished: the
			// session ends the way its context says. Under the spool lock,
			// a Cancel that read the job running lands before this edit
			// (and is seen here) or after it (and finds the session open).
			out.State, out.Error = classifyOutcome(ctx, context.Canceled)
		}
		mm.State = out.State
		switch {
		case out.State.Terminal():
			mm.FinishedAt = &now
		case out.State == StateParked:
			mm.StartedAt = nil
		}
		mm.Error = out.Error
		mm.Result = out.Result
		return nil
	}); err != nil {
		s.log.ErrorContext(ctx, "finalize manifest", "error", err)
	}
	untrack()
	s.queue.ObserveJobDuration(time.Since(start))
	s.hJobWall.ObserveSince(start)
	switch out.State {
	case StateDone:
		s.reg.Counter("serve.jobs_completed").Inc()
	case StateFailed:
		s.reg.Counter("serve.jobs_failed").Inc()
	case StateCanceled:
		s.reg.Counter("serve.jobs_canceled").Inc()
	case StateParked:
		s.reg.Counter("serve.jobs_parked").Inc()
	}
	a.hub.Publish(Event{Type: "state", State: out.State, Error: out.Error})
	s.log.InfoContext(ctx, "job finished",
		"state", out.State, "wall", time.Since(start).Round(time.Millisecond), "error", out.Error)
	if out.State == StateOpen {
		return // the session's stream goes on with its deltas
	}
	if ws := s.warmOf(a); ws != nil {
		ws.drop(s)
	}
	a.hub.Close()
	if out.State.Terminal() {
		s.retire(id)
	}
}

// track derives the context of a job's in-flight work — its run, or a
// session's delta — from parent and registers its cancel for Cancel and
// Drain; untrack cancels and unregisters it.
func (s *Server) track(a *activeJob, parent context.Context) (ctx context.Context, untrack func()) {
	ctx, cancel := context.WithCancelCause(parent)
	s.mu.Lock()
	a.cancel = cancel
	draining := s.draining
	s.mu.Unlock()
	if draining {
		cancel(ErrParked) // drain began before registration
	}
	return ctx, func() {
		cancel(nil)
		s.mu.Lock()
		a.cancel = nil
		s.mu.Unlock()
	}
}

// warmOf returns the job's session warm state, nil for other kinds.
func (s *Server) warmOf(a *activeJob) *warmSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return a.eco
}
