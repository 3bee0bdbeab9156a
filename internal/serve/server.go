package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
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
	// re-admission and a farm's own trial jobs are exempt.
	QueueCap int
	// TenantRate limits how fast each tenant lane is popped, in jobs/second
	// (0 = unlimited); TenantBurst is the bucket size (default 4).
	TenantRate  float64
	TenantBurst int
	// Workers is the size of the local worker pool (default 2). Each worker
	// runs one staged pipeline at a time with its own telemetry registry.
	// Unused under a fleet, whose capacity is its workers'.
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
	// carries trace/span/job/session correlation attrs when emitted under
	// a request or worker context (obs.LogHandler). Nil means silent.
	Log *slog.Logger
}

// errJobDeadline is the cause of a local job's own deadline firing.
var errJobDeadline = errors.New("job deadline exceeded")

// activeJob is the in-memory runtime of one admitted job.
type activeJob struct {
	hub    *Hub
	cancel context.CancelCauseFunc // nil unless the job is running
}

// Server is the placement job service: spool + queue + backend + per-job
// progress hubs + daemon-level metrics. Construct with New (standalone) or
// NewFleet (coordinator), start scheduling with Start, attach the HTTP
// surface via Handler, and stop with Drain or Close.
type Server struct {
	cfg     Config
	spool   *Spool
	queue   *Queue
	backend Backend
	fleet   Fleet         // nil on a standalone daemon
	reg     *obs.Registry // daemon-level metrics (queue depth, job counts)
	log     *slog.Logger

	// Service latency histograms, resolved once from reg so the hot paths
	// skip the registry map. Exposed on /metrics and fed to the SLOs.
	hHTTP      *obs.Histogram // wall of every HTTP request
	hQueueWait *obs.Histogram // submit → worker claim
	hJobWall   *obs.Histogram // worker claim → terminal/parked
	hColdOpen  *obs.Histogram // session base placement wall
	hWarmDelta *obs.Histogram // warm delta apply wall
	hSSE       *obs.Histogram // one SSE event write+flush
	slo        *obs.SLO
	startedAt  time.Time

	baseCtx   context.Context
	stopBase  context.CancelFunc
	schedCtx  context.Context // ends when Drain begins
	stopSched context.CancelFunc
	wg        sync.WaitGroup
	// resume lists what Start launches outside the queue: jobs a remote
	// worker kept running (re-attach) and distributed explorations.
	resume []func()

	// designs shares parsed netlists and RSMT topology memos across jobs
	// of the same design (keyed by content address).
	designs *designCache

	mu               sync.Mutex
	jobs             map[string]*activeJob // every job seen this boot, incl. finished
	sessions         map[string]*sessionRuntime
	finished         []string // finished-job hub retention order
	finishedSessions []string // closed/failed-session hub retention order
	draining         bool

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

// New builds a standalone daemon: jobs run on the in-process worker pool.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil) }

// NewFleet builds a coordinator's core: jobs run wherever f dispatches
// them, admission passes through f's content-addressing hook, and f's
// routes replace the (local-only) session routes.
func NewFleet(cfg Config, f Fleet) (*Server, error) { return newServer(cfg, f) }

// newServer opens the spool, re-admits interrupted jobs, and prepares the
// scheduler (not yet started).
func newServer(cfg Config, fleet Fleet) (*Server, error) {
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
		fleet:     fleet,
		reg:       obs.NewRegistry(),
		log:       cfg.Log,
		startedAt: time.Now(),
		baseCtx:   ctx,
		stopBase:  cancel,
		designs:   newDesignCache(),
		jobs:      make(map[string]*activeJob),
		sessions:  make(map[string]*sessionRuntime),
	}
	s.schedCtx, s.stopSched = context.WithCancel(ctx)
	if fleet != nil {
		s.backend = fleet
	} else {
		s.backend = newLocalBackend(s)
	}
	s.hHTTP = s.reg.Histogram("serve.http_request_seconds")
	s.hQueueWait = s.reg.Histogram("serve.queue_wait_seconds")
	s.hJobWall = s.reg.Histogram("serve.job_wall_seconds")
	s.hColdOpen = s.reg.Histogram("serve.session_cold_open_seconds")
	s.hWarmDelta = s.reg.Histogram("serve.session_warm_delta_seconds")
	s.hSSE = s.reg.Histogram("serve.sse_fanout_seconds")
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
	if fleet == nil {
		if err := s.recoverSessions(); err != nil {
			cancel()
			return nil, err
		}
	}
	s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Len()))
	s.reg.Gauge("serve.queue_cap").Set(float64(cfg.QueueCap))
	s.reg.Gauge("serve.workers").Set(float64(s.backend.Slots()))
	return s, nil
}

// recover picks the spool's interrupted jobs up again (Spool.Recover):
// re-admitted ones go back in line, remote ones are re-attached at Start,
// and a distributed exploration restarts its controller at Start, resuming
// from its own checkpoint artifact.
func (s *Server) recover() error {
	requeue, attached, err := s.spool.Recover()
	if err != nil {
		return err
	}
	for _, m := range attached {
		id := m.ID
		s.ensureJob(id)
		s.resume = append(s.resume, func() { s.runJob(id, s.backend.Run, true) })
		s.log.Info("re-attaching remote job", "job", id, "node", m.Node)
	}
	for _, m := range requeue {
		id := m.ID
		s.ensureJob(id)
		if m.Spec.Distributed && s.fleet != nil {
			s.resume = append(s.resume, func() { s.runJob(id, s.fleet.Explore, false) })
			continue
		}
		// ForcePush: every interrupted job gets back in line even if the
		// spool holds more than one queue's worth.
		if err := s.queue.ForcePush(m.Tenant, id); err != nil {
			return err
		}
		s.log.Info("re-admitted interrupted job", "job", id, "attempt", m.Attempts, "stage", m.Stage)
	}
	s.Recovered = len(requeue) + len(attached)
	return nil
}

// recoverSessions marks the sessions a booting daemon inherits: sessions
// still opening when the previous daemon died have no snapshot and fail;
// open or parked ones park, for the next delta to rehydrate them from the
// spooled snapshot.
func (s *Server) recoverSessions() error {
	const msg = "daemon restarted before the base placement finished"
	err := s.spool.sessions.sweep(func(m *SessionManifest) func(*SessionManifest) error {
		switch m.State {
		case SessionOpening:
			s.log.Warn("session failed at boot", "session", m.ID, "error", msg)
			return failSession(msg)
		case SessionOpen, SessionParked:
			s.RecoveredSessions++
			s.log.Info("session parked at boot; next delta rehydrates", "session", m.ID, "deltas", m.Deltas)
			return parkSession
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: recover sessions: %w", err)
	}
	return nil
}

// Spool exposes the server's spool (read-only use).
func (s *Server) Spool() *Spool { return s.spool }

// Stats is a point-in-time load summary of the job service. Fleet workers
// report it in every heartbeat so the coordinator can dispatch to the
// least-loaded live node; it is node-agnostic — nothing in it names the
// fleet.
type Stats struct {
	Draining   bool `json:"draining"`
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Workers    int  `json:"workers"`
	ActiveJobs int  `json:"active_jobs"`
}

// Stats captures the server's current load.
func (s *Server) Stats() Stats {
	return Stats{
		Draining:   s.Draining(),
		QueueDepth: s.queue.Len(),
		QueueCap:   s.queue.Cap(),
		Workers:    s.backend.Slots(),
		ActiveJobs: s.activeCount(),
	}
}

// Registry exposes the daemon-level metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the scheduler, whatever recovery left to resume outside
// the queue, and, when configured, the idle-session janitor.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.schedule()
	for _, fn := range s.resume {
		s.launch(fn)
	}
	s.resume = nil
	if s.cfg.SessionIdle > 0 && s.fleet == nil {
		s.wg.Add(1)
		go s.sessionJanitor(s.cfg.SessionIdle)
	}
}

// launch runs fn on a goroutine Drain waits for.
func (s *Server) launch(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
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

// lookup returns the job or session runtime entry for id in live, if this
// boot has one.
func lookup[R any](s *Server, live map[string]R, id string) (R, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := live[id]
	return rt, ok
}

// Watch subscribes to a job's progress hub (Hub.Subscribe); ok is false when
// this boot holds none for it (never seen, or retention expired).
func (s *Server) Watch(id string) (replay []Event, live <-chan Event, cancel func(), ok bool) {
	a, ok := lookup(s, s.jobs, id)
	if !ok {
		return nil, nil, nil, false
	}
	replay, ch, cancel := a.hub.Subscribe()
	return replay, ch, cancel, true
}

// retire enrolls a terminal job's or session's runtime in hub retention:
// it stays in live, for late watchers, until hubRetention later ones have
// retired, then drops (reads fall back to the spooled manifest).
func retire[R any](s *Server, order *[]string, live map[string]R, id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*order = append(*order, id)
	for len(*order) > hubRetention {
		delete(live, (*order)[0])
		*order = (*order)[1:]
	}
}

// Drain gracefully stops the server: admission closes (submissions get
// 503), running jobs are canceled with cause ErrParked — the local backend
// parks them at their last stage-boundary checkpoint within one pipeline
// iteration; a remote backend leaves them running on their workers, to be
// re-attached at the next boot — and everything is awaited up to ctx's
// deadline. Queued jobs stay queued in the spool; the next boot re-admits
// queued and parked jobs alike.
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
	s.parkSessions()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", context.Cause(ctx))
	}
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
