package serve

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"puffer/internal/obs"
)

// Cancellation causes of a running job's context, distinguished through
// context.Cause so a backend can tell a drain from a client cancel.
var (
	// ErrParked: the server is draining. The local backend parks the job
	// at its last checkpoint; a remote backend leaves it running on its
	// worker and reports it detached.
	ErrParked = errors.New("daemon draining: job parked")
	// ErrCanceled: a client (or the exploration farm) canceled the job.
	ErrCanceled = errors.New("job canceled by client")
)

// ErrInvalidSpec marks a Fleet.Admit failure that is the submitter's fault
// (400 instead of 500).
var ErrInvalidSpec = errors.New("invalid job spec")

// Job is one claimed job handed to a backend: the manifest as claimed
// (read-only) and the hub its progress is published into.
type Job struct {
	M   *Manifest
	Hub *Hub
}

// Outcome is what a backend reports when Run returns. State decides what
// the core does next:
//
//	done | failed | canceled — finalize the manifest, end the stream
//	parked                   — record the park; the next boot re-admits it
//	queued                   — "retry elsewhere": back to the head of its lane
//	running                  — detached: the job runs on without this server
//	                           (a remote worker during drain); re-attached at boot
type Outcome struct {
	State JobState
	// Error is the failure or cancel message (the retry reason for queued).
	Error  string
	Result *JobResult
	// ResultDigest, when set, lands in the same manifest write as done.
	ResultDigest string
}

// Backend hides where a claimed job runs: the in-process worker pool of a
// standalone daemon, or a coordinator's fleet of remote workers.
type Backend interface {
	// Acquire blocks until the backend can take one more job — a free local
	// worker; a live, engine-matched, un-backed-off node — or ctx ends. The
	// caller releases the slot after the job's Run returns.
	Acquire(ctx context.Context) (release func(), err error)
	// Run executes j to an outcome, publishing progress into j.Hub and
	// leaving artifacts in the server's spool. A manifest that already
	// names a remote job is re-attached, not started again. ctx ends with
	// cause ErrParked or ErrCanceled.
	Run(ctx context.Context, j *Job) Outcome
	// Slots is the current parallel capacity (0 = nothing can run).
	Slots() int
}

// Fleet is what a coordinator adds to the core; a standalone daemon has
// none. It is the remote Backend plus the content-addressing hooks of
// admission, the runner of distributed explorations, and its routes.
type Fleet interface {
	Backend
	// Admit content-addresses a validated submission before it is spooled
	// and may answer it from the result cache by filling m as done. undo
	// (may be nil) reverts its side effects when admission fails later.
	Admit(m *Manifest) (undo func(), err error)
	// Finished runs once m's terminal manifest is durable.
	Finished(m *Manifest)
	// Explore runs a distributed exploration (a farm controller whose
	// trials come back through Server.Submit) under the same lifecycle as
	// Backend.Run.
	Explore(ctx context.Context, j *Job) Outcome
	// Artifact fetches a running job's artifact from the worker holding it.
	Artifact(ctx context.Context, m *Manifest, name string) ([]byte, error)
	// Mount adds the fleet's own routes to the shared mux.
	Mount(mux *http.ServeMux)
	// Ops returns the fleet's additions to /healthz (role) and /api/v1/ops.
	Ops(full bool) map[string]any
}

// errSkipJob marks a popped queue entry whose manifest is no longer
// queued (canceled while waiting, or a duplicate admission).
var errSkipJob = errors.New("serve: job no longer queued")

// schedule is the one loop between queue and backend: take a slot, pop a
// job, run it.
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		release, err := s.backend.Acquire(s.schedCtx)
		if err != nil {
			return
		}
		id, ok := s.queue.Pop()
		s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Len()))
		if !ok || s.Draining() {
			// Leave the job spooled as queued; the next boot re-admits it.
			release()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer release()
			s.runJob(id, s.backend.Run, false)
		}()
	}
}

// runJob owns one job's lifecycle around a backend run: claim, cancel
// registration, the running event, then — once run returns — the durable
// manifest transition, the fleet's Finished hook, and only after both the
// state event watchers act on. reattach skips the claim for a job a remote
// worker kept running while this server was down.
func (s *Server) runJob(id string, run func(context.Context, *Job) Outcome, reattach bool) {
	start := time.Now()
	var (
		m   *Manifest
		err error
	)
	if reattach {
		m, err = s.spool.ReadManifest(id)
	} else {
		m, err = s.spool.Update(id, func(mm *Manifest) error {
			if mm.State != StateQueued {
				return errSkipJob
			}
			mm.State = StateRunning
			mm.StartedAt = &start
			mm.Attempts++
			return nil
		})
	}
	if err != nil {
		if !errors.Is(err, errSkipJob) {
			s.log.Error("job claim failed", "job", id, "error", err)
		}
		return
	}

	a := s.ensureJob(id)
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	s.mu.Lock()
	a.cancel = cancel
	draining := s.draining
	s.mu.Unlock()
	if draining {
		cancel(ErrParked) // drain began between Pop and registration
	}
	defer cancel(nil)
	ctx = obs.ContextWithLabels(ctx, slog.String("job", id))

	queueWait := start.Sub(m.SubmittedAt)
	if queueWait < 0 {
		queueWait = 0
	}
	if !reattach {
		s.hQueueWait.Observe(queueWait.Seconds())
	}
	s.reg.Gauge("serve.active_jobs").Set(float64(s.activeCount()))
	a.hub.Publish(Event{Type: "state", State: StateRunning})
	s.log.InfoContext(ctx, "job running",
		"kind", m.Spec.Kind, "attempt", m.Attempts,
		"queue_wait", queueWait.Round(time.Millisecond))

	out := run(ctx, &Job{M: m, Hub: a.hub})

	if out.Result != nil {
		out.Result.Artifacts = s.listArtifacts(id)
	}
	final := m
	if out.State != StateRunning {
		now := time.Now()
		final, err = s.spool.Update(id, func(mm *Manifest) error {
			mm.State = out.State
			switch {
			case out.State == StateQueued:
				mm.Node, mm.NodeAddr, mm.RemoteID, mm.StartedAt = "", "", "", nil
				return nil
			case out.State.Terminal():
				mm.FinishedAt = &now
				mm.ResultDigest = out.ResultDigest
			default:
				mm.StartedAt = nil
			}
			mm.Error = out.Error
			mm.Result = out.Result
			return nil
		})
		if err != nil {
			s.log.ErrorContext(ctx, "finalize manifest", "error", err)
		}
	}
	if out.State.Terminal() || out.State == StateParked {
		s.queue.ObserveJobDuration(time.Since(start))
		s.hJobWall.ObserveSince(start)
	}
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
	if out.State.Terminal() {
		s.onTerminal(final)
	}
	if out.State != StateRunning {
		a.hub.Publish(Event{Type: "state", State: out.State, Error: out.Error})
	}
	if out.State != StateQueued {
		a.hub.Close()
	}
	s.mu.Lock()
	a.cancel = nil
	s.mu.Unlock()
	if out.State.Terminal() {
		retire(s, &s.finished, s.jobs, id)
	}
	s.reg.Gauge("serve.active_jobs").Set(float64(s.activeCount()))
	s.log.InfoContext(ctx, "job finished",
		"state", out.State, "wall", time.Since(start).Round(time.Millisecond), "error", out.Error)
	if out.State == StateQueued {
		// Closed means draining: the job stays queued in the spool.
		_ = s.queue.PushFront(m.Tenant, id)
	}
}

// onTerminal runs the fleet's post-terminal hook.
func (s *Server) onTerminal(m *Manifest) {
	if s.fleet != nil && m != nil {
		s.fleet.Finished(m)
	}
}
