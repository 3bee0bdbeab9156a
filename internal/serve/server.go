package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"puffer/internal/obs"
)

// Config configures a job server.
type Config struct {
	// SpoolDir is the root of the durable job spool.
	SpoolDir string
	// QueueCap bounds the admission queue across all tenant lanes (default
	// 16). Submissions beyond it receive 429 + Retry-After; recovery
	// re-admission is exempt.
	QueueCap int
	// TenantRate limits how fast each tenant lane is popped, in jobs/second
	// (0 = unlimited); TenantBurst is the bucket size (default 4).
	TenantRate  float64
	TenantBurst int
	// Workers is the size of the local worker pool (default 2). Each worker
	// runs one staged pipeline at a time with its own telemetry registry.
	Workers int
	// DefaultJobTimeout applies to jobs that do not set their own
	// timeout_sec (0 = no deadline). The clock restarts on resume.
	DefaultJobTimeout time.Duration
	// SessionIdle is how long an ECO session's in-memory warm state may
	// sit unused before the janitor evicts it (the spooled snapshot stays;
	// the next delta rehydrates transparently). 0 disables eviction.
	SessionIdle time.Duration
	// QueueWaitSLO bounds the queue-wait p99 objective surfaced on /readyz
	// and /api/v1/ops (default 60s; negative disables the objective).
	QueueWaitSLO time.Duration
	// DrainGrace holds Drain open after readiness flips (admission stops,
	// /readyz answers 503) before running jobs are canceled, so load
	// balancers watching /readyz can route traffic away while in-flight
	// work still completes normally. 0 cancels immediately.
	DrainGrace time.Duration
	// Log receives the daemon's structured log records. Every record
	// carries trace/span/job correlation attrs when emitted under
	// a request or worker context (obs.LogHandler). Nil means silent.
	Log *slog.Logger
}

// errJobDeadline is the cause of a local job's own deadline firing.
var errJobDeadline = errors.New("job deadline exceeded")

// activeJob is the in-memory runtime of one admitted job.
type activeJob struct {
	hub *Hub
	// cancel is non-nil while the job's run or, for a session, a delta is
	// in flight.
	cancel context.CancelCauseFunc
	// eco is a session's warm state; nil for other kinds, and for a
	// session until its base placement finishes or a delta rehydrates it.
	eco *warmSession
}

// Server is the placement job service: spool + queue + worker pool +
// per-job progress hubs + daemon-level metrics. Construct with New, start
// scheduling with Start, attach the HTTP surface via Handler, and stop with
// Drain or Close.
type Server struct {
	cfg   Config
	spool *Spool
	queue *Queue
	// slots is the worker pool: one token per running job.
	slots chan struct{}
	// run executes one claimed job (runLocal; lifecycle tests substitute a
	// fake).
	run func(context.Context, *Job) Outcome
	reg *obs.Registry // daemon-level metrics (queue depth, job counts)
	log *slog.Logger

	// Service latency histograms, resolved once from reg so the hot paths
	// skip the registry map. Exposed on /metrics and fed to the SLOs.
	hHTTP      *obs.Histogram // wall of every HTTP request
	hQueueWait *obs.Histogram // submit → worker claim
	hJobWall   *obs.Histogram // worker claim → terminal/parked
	hColdOpen  *obs.Histogram // session base placement wall
	hWarmDelta *obs.Histogram // warm delta apply wall
	slo        *obs.SLO
	startedAt  time.Time

	baseCtx   context.Context
	stopBase  context.CancelFunc
	schedCtx  context.Context // ends when Drain begins
	stopSched context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*activeJob // every job seen this boot, incl. finished
	finished []string              // finished-job hub retention order
	draining bool

	// Recovered is the number of interrupted jobs re-admitted at boot.
	Recovered int
	// RecoveredSessions is the number of sessions parked at boot (resumed
	// lazily from their spooled snapshots on the next delta).
	RecoveredSessions int
}

// hubRetention bounds how many finished jobs keep their event hubs (and
// registries) in memory for late watchers; older ones fall back to the
// spooled manifest/artifacts.
const hubRetention = 128

// New opens the spool, re-admits interrupted jobs and parks placed
// sessions, and prepares the scheduler (not yet started). Jobs run on the
// in-process worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 4
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.QueueWaitSLO == 0 {
		cfg.QueueWaitSLO = time.Minute
	}
	sp, err := OpenSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		spool:     sp,
		queue:     NewQueue(cfg.QueueCap, cfg.TenantRate, cfg.TenantBurst),
		slots:     make(chan struct{}, cfg.Workers),
		reg:       obs.NewRegistry(),
		log:       cfg.Log,
		startedAt: time.Now(),
		baseCtx:   ctx,
		stopBase:  cancel,
		jobs:      make(map[string]*activeJob),
	}
	s.schedCtx, s.stopSched = context.WithCancel(ctx)
	s.run = s.runLocal
	s.hHTTP = s.reg.Histogram("serve.http_request_seconds")
	s.hQueueWait = s.reg.Histogram("serve.queue_wait_seconds")
	s.hJobWall = s.reg.Histogram("serve.job_wall_seconds")
	s.hColdOpen = s.reg.Histogram("serve.session_cold_open_seconds")
	s.hWarmDelta = s.reg.Histogram("serve.session_warm_delta_seconds")
	s.slo = obs.NewSLO(
		// The paper's ECO promise: a warm delta must stay an order of
		// magnitude under the cold wall. Unevaluable until cold opens exist.
		obs.Objective{
			Name: "warm-delta-p95", Histogram: s.hWarmDelta, Quantile: 0.95, MinCount: 3,
			Bound: func() float64 { return s.hColdOpen.Snapshot().Mean() / 10 },
		},
		obs.Objective{
			Name: "queue-wait-p99", Histogram: s.hQueueWait, Quantile: 0.99, MinCount: 5,
			Bound: func() float64 { return cfg.QueueWaitSLO.Seconds() },
		},
	)
	if err := s.recover(); err != nil {
		cancel()
		return nil, fmt.Errorf("serve: recover spool: %w", err)
	}
	return s, nil
}

// recover puts the spool's interrupted jobs back in line and counts the
// sessions it parked (Spool.Recover).
func (s *Server) recover() error {
	requeue, parked, err := s.spool.Recover()
	if err != nil {
		return err
	}
	for _, m := range parked {
		s.log.Info("session parked at boot; next delta rehydrates", "job", m.ID)
	}
	s.RecoveredSessions = len(parked)
	// Sessions had a manifest family of their own under sessions/ until
	// they became jobs; such a spool still boots, but its sessions are not
	// carried over.
	dir := filepath.Join(s.spool.Root(), "sessions")
	if old, _ := os.ReadDir(dir); len(old) > 0 {
		s.log.Warn("ignoring sessions spooled in the retired sessions/ layout; reopen them as session jobs",
			"count", len(old), "dir", dir)
	}
	for _, m := range requeue {
		s.ensureJob(m.ID)
		// Forced past the cap: every interrupted job gets back in line even
		// if the spool holds more than one queue's worth.
		if err := s.queue.push(m.Tenant, m.ID, true); err != nil {
			return err
		}
		s.log.Info("re-admitted interrupted job", "job", m.ID, "attempt", m.Attempts, "stage", m.Stage)
	}
	s.Recovered = len(requeue)
	return nil
}

// Spool exposes the server's spool (read-only use).
func (s *Server) Spool() *Spool { return s.spool }

// QueueCap is the admission queue's capacity in effect (Config.QueueCap
// after defaulting).
func (s *Server) QueueCap() int { return s.queue.Cap() }

// Registry exposes the daemon-level metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the scheduler and, when configured, the idle-session
// janitor.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.schedule()
	if s.cfg.SessionIdle > 0 {
		s.wg.Add(1)
		go s.sessionJanitor(s.cfg.SessionIdle)
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ensureJob returns the job's runtime entry, creating the hub on first use.
func (s *Server) ensureJob(id string) *activeJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.jobs[id]
	if !ok {
		a = &activeJob{hub: NewHub()}
		s.jobs[id] = a
	}
	return a
}

// job returns the job's runtime entry, if this boot has one.
func (s *Server) job(id string) (*activeJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.jobs[id]
	return a, ok
}

// retire enrolls a terminal job's runtime in hub retention: it stays, for
// late watchers, until hubRetention later ones have retired, then drops
// (reads fall back to the spooled manifest).
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > hubRetention {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Drain gracefully stops the server: admission closes (submissions get
// 503), running jobs and in-flight deltas are canceled with cause
// ErrParked — a job parks at its last stage-boundary checkpoint within one
// pipeline iteration, a delta is lost — and everything is awaited up to
// ctx's deadline; then open sessions park at their last applied delta.
// Queued jobs stay queued in the spool; the next boot re-admits queued and
// parked jobs alike.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	cancels := make([]context.CancelCauseFunc, 0, len(s.jobs))
	for _, a := range s.jobs {
		if a.cancel != nil {
			cancels = append(cancels, a.cancel)
		}
	}
	s.mu.Unlock()

	s.stopSched()
	s.queue.Close()
	// Readiness has flipped; give load balancers the configured window to
	// observe it before in-flight jobs are told to park.
	if g := s.cfg.DrainGrace; g > 0 {
		select {
		case <-time.After(g):
		case <-ctx.Done():
		}
	}
	for _, c := range cancels {
		c(ErrParked)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain timed out: %w", context.Cause(ctx))
	}
	s.parkSessions()
	return err
}

// Close force-stops the server (Drain with a generous default window,
// then the base context is canceled regardless).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	s.stopBase()
	return err
}
