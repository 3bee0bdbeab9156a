package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/pipeline"
)

// SessionManifestFormat identifies the session manifest JSON document
// version.
const SessionManifestFormat = "puffer/session/v1"

// SessionState is the lifecycle state of an ECO session. Transitions:
//
//	opening → open | failed
//	open → parked (graceful drain / daemon restart) → open (next delta rehydrates)
//	open | parked → closed (client close)
//
// A session whose daemon restarted while still opening has no spooled
// snapshot to resume from, so it fails; the client reopens it.
type SessionState string

// Session lifecycle states.
const (
	SessionOpening SessionState = "opening"
	SessionOpen    SessionState = "open"
	SessionParked  SessionState = "parked"
	SessionFailed  SessionState = "failed"
	SessionClosed  SessionState = "closed"
)

// Terminal reports whether a session in state s will never accept another
// delta.
func (s SessionState) Terminal() bool {
	return s == SessionFailed || s == SessionClosed
}

// SessionSpec is what a client posts to open an ECO session: the design
// source and flow knobs (mirroring JobSpec), plus the warm re-place caps.
type SessionSpec struct {
	// Profile names a synthetic benchmark profile (internal/synth);
	// exactly one of Profile and Bookshelf must be set.
	Profile string `json:"profile,omitempty"`
	// Scale is the profile scale divisor (default 800).
	Scale int `json:"scale,omitempty"`
	// Seed is the generation/placement seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Bookshelf inlines an uploaded design as filename → file content.
	Bookshelf map[string]string `json:"bookshelf,omitempty"`

	// MaxIters caps cold global-placement iterations (0 = engine default).
	MaxIters int `json:"max_iters,omitempty"`
	// Workers caps the session's data parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Strategy, when non-empty, is a padding.Strategy JSON document.
	Strategy json.RawMessage `json:"strategy,omitempty"`

	// WarmMaxIters / WarmMinIters tune the per-delta warm re-place
	// (eco.Options); 0 derives the defaults from the cold configuration.
	WarmMaxIters int `json:"warm_max_iters,omitempty"`
	WarmMinIters int `json:"warm_min_iters,omitempty"`
}

// Normalize fills defaulted fields in place.
func (s *SessionSpec) Normalize() {
	if s.Scale == 0 {
		s.Scale = 800
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Validate rejects malformed specs with a client-presentable error.
func (s *SessionSpec) Validate() error {
	if err := checkSource(s.Profile, s.Bookshelf, s.Strategy); err != nil {
		return err
	}
	if s.Scale < 0 || s.MaxIters < 0 || s.Workers < 0 || s.WarmMaxIters < 0 || s.WarmMinIters < 0 {
		return fmt.Errorf("negative scale/max_iters/workers/warm_max_iters/warm_min_iters")
	}
	return nil
}

// SessionManifest is the durable record of one ECO session, spooled as
// manifest.json in the session's directory and rewritten atomically on
// every transition. The warm state itself lives next to it in
// snapshot.json (eco.Snapshot), rewritten after the base placement and
// after every applied delta — so a parked or crashed session resumes from
// its last completed delta.
type SessionManifest struct {
	Format string       `json:"format"`
	ID     string       `json:"id"`
	Spec   SessionSpec  `json:"spec"`
	State  SessionState `json:"state"`
	// Error is the failure message for failed sessions.
	Error string `json:"error,omitempty"`

	// Deltas counts applied deltas; LastHPWL/LastOverflow summarize the
	// most recent placement (base or delta).
	Deltas       int     `json:"deltas"`
	LastHPWL     float64 `json:"last_hpwl,omitempty"`
	LastOverflow float64 `json:"last_overflow,omitempty"`
	// DesignHash is the eco.DesignHash the snapshot is bound to.
	DesignHash string `json:"design_hash,omitempty"`

	OpenedAt    time.Time  `json:"opened_at"`
	LastDeltaAt *time.Time `json:"last_delta_at,omitempty"`
	ClosedAt    *time.Time `json:"closed_at,omitempty"`
}

// parkSession is the manifest edit that parks an open session.
func parkSession(m *SessionManifest) error {
	if m.State == SessionOpen {
		m.State = SessionParked
	}
	return nil
}

// failSession returns the manifest edit that fails a session with msg.
func failSession(msg string) func(*SessionManifest) error {
	return func(m *SessionManifest) error {
		m.State, m.Error = SessionFailed, msg
		return nil
	}
}

// --- session runtime -----------------------------------------------------

// sessionRuntime is the in-memory side of one ECO session: the live
// eco.Session (nil when evicted or parked — rehydrated lazily from the
// spooled snapshot on the next delta), the progress hub, and the
// per-session telemetry. run serializes the session's work: the base
// placement and every delta hold it, so a concurrent delta gets 409.
type sessionRuntime struct {
	id  string
	hub *Hub

	run sync.Mutex // held while opening or applying a delta

	mu       sync.Mutex // guards the fields below
	sess     *eco.Session
	cancel   context.CancelCauseFunc // non-nil while work is in flight
	lastUsed time.Time
	tel      *runTelemetry // nil until the first run of this warm period
}

// ensureSession returns the session's runtime entry, creating it on first
// use this boot.
func (s *Server) ensureSession(id string) *sessionRuntime {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.sessions[id]
	if !ok {
		rt = &sessionRuntime{id: id, hub: NewHub(), lastUsed: time.Now()}
		s.sessions[id] = rt
	}
	return rt
}

// liveSessions returns the session runtimes this boot holds.
func (s *Server) liveSessions() []*sessionRuntime {
	s.mu.Lock()
	defer s.mu.Unlock()
	rts := make([]*sessionRuntime, 0, len(s.sessions))
	for _, rt := range s.sessions {
		rts = append(rts, rt)
	}
	return rts
}

// warm returns the session's in-memory eco.Session, nil when the next
// delta must rehydrate it from the spooled snapshot.
func (rt *sessionRuntime) warm() *eco.Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sess
}

// setWarm installs the session's in-memory warm state; nil drops it.
func (rt *sessionRuntime) setWarm(sess *eco.Session) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.sess, rt.lastUsed = sess, time.Now()
}

// recorder returns the session's telemetry recorder, opening the run
// telemetry (spooled into dir) on first use. A rehydrate after
// closeTelemetry opens it afresh, so an evicted-then-warmed session
// republishes its registry.
func (rt *sessionRuntime) recorder(dir string) *obs.Recorder {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tel == nil {
		rt.tel = openTelemetry(dir, "session-"+rt.id, rt.hub, "")
	}
	return rt.tel.rec
}

// closeTelemetry releases the runtime's telemetry: the session's span tree
// (base placement plus every warm delta applied since the last rehydrate)
// spools as trace.json, the metric stream closes, and the expvar
// registration is dropped. Called on close, open failure, park and idle
// eviction — without the unpublish here, evicted sessions would pin their
// registries in the process-global expvar map forever.
func (rt *sessionRuntime) closeTelemetry(s *Server) {
	rt.mu.Lock()
	tel := rt.tel
	rt.tel = nil
	rt.mu.Unlock()
	if tel == nil {
		return
	}
	if err := tel.close(); err != nil {
		s.log.Error("spool session telemetry", "session", rt.id, "error", err)
	}
}

// track derives the context of the session's next piece of work from
// parent and registers its cancel for close and drain; untrack cancels and
// unregisters it.
func (rt *sessionRuntime) track(parent context.Context) (ctx context.Context, cancel context.CancelCauseFunc, untrack func()) {
	ctx, cancel = context.WithCancelCause(parent)
	rt.mu.Lock()
	rt.cancel = cancel
	rt.mu.Unlock()
	return ctx, cancel, func() {
		cancel(nil)
		rt.mu.Lock()
		rt.cancel = nil
		rt.mu.Unlock()
	}
}

// endSession publishes a session's terminal state event, closes its hub
// and telemetry, and enrolls the runtime in hub retention like a finished
// job's.
func (s *Server) endSession(rt *sessionRuntime, ev Event) {
	rt.hub.Publish(ev)
	rt.hub.Close()
	rt.closeTelemetry(s)
	retire(s, &s.finishedSessions, s.sessions, rt.id)
}

// sessionFlow rebuilds the session's design and flow configuration. Both
// are deterministic in the spec, so a rehydrated session runs under exactly
// the configuration its snapshot was captured under, and eco.Restore
// verifies the design by hash.
func (s *Server) sessionFlow(m *SessionManifest, rt *sessionRuntime) (*netlist.Design, pipeline.Config, error) {
	dir := s.spool.sessions.dir(m.ID)
	d, err := loadDesign(m.Spec.Profile, m.Spec.Scale, m.Spec.Seed, m.Spec.Bookshelf, dir)
	if err != nil {
		return nil, pipeline.Config{}, fmt.Errorf("build design: %w", err)
	}
	cfg, err := flowConfig(m.Spec.Seed, m.Spec.MaxIters, m.Spec.Workers, m.Spec.Strategy, rt.recorder(dir), rt.hub)
	return d, cfg, err
}

func (m *SessionManifest) ecoOptions() eco.Options {
	return eco.Options{WarmMaxIters: m.Spec.WarmMaxIters, WarmMinIters: m.Spec.WarmMinIters}
}

// openSession runs the session's base placement. It is called on its own
// goroutine (tracked by the server wait group) with rt.run held; the POST
// handler has already returned 202, so progress flows through the hub and
// the outcome lands in the manifest.
func (s *Server) openSession(m *SessionManifest, rt *sessionRuntime) {
	defer s.wg.Done()
	defer rt.run.Unlock()
	start := time.Now()
	id := m.ID

	ctx, _, untrack := rt.track(s.baseCtx)
	defer untrack()

	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		s.log.Error("session open failed", "session", id, "error", msg)
		s.spool.sessions.update(id, failSession(msg))
		s.endSession(rt, Event{Type: "state", State: JobState(SessionFailed), Error: msg})
	}

	d, cfg, err := s.sessionFlow(m, rt)
	if err != nil {
		fail("%v", err)
		return
	}
	sess, err := eco.New(d, cfg, m.ecoOptions())
	if err != nil {
		fail("open session: %v", err)
		return
	}
	res, err := sess.Place(ctx)
	if err != nil {
		if errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled) {
			// A session interrupted before its base placement has no
			// snapshot to park; it fails and the client reopens it.
			fail("base placement interrupted: %v", context.Cause(ctx))
			return
		}
		fail("base placement: %v", err)
		return
	}
	sn, err := sess.Snapshot()
	if err == nil {
		err = sn.Save(filepath.Join(s.spool.sessions.dir(id), "snapshot.json"))
	}
	if err != nil {
		fail("spool snapshot: %v", err)
		return
	}

	rt.setWarm(sess)
	s.spool.sessions.update(id, func(mm *SessionManifest) error {
		mm.State = SessionOpen
		mm.LastHPWL = res.HPWL
		mm.LastOverflow = res.GP.Overflow
		mm.DesignHash = sn.DesignHash
		return nil
	})
	rt.hub.Publish(Event{Type: "state", State: JobState(SessionOpen)})
	s.reg.Counter("serve.sessions_opened").Inc()
	s.hColdOpen.ObserveSince(start)
	s.log.Info("session open",
		"session", id, "hpwl", res.HPWL, "wall", time.Since(start).Round(time.Millisecond))
}

// rehydrateSession rebuilds the in-memory eco.Session of a parked or
// evicted session from the spooled snapshot. Caller holds rt.run.
func (s *Server) rehydrateSession(m *SessionManifest, rt *sessionRuntime) (*eco.Session, error) {
	d, cfg, err := s.sessionFlow(m, rt)
	if err != nil {
		return nil, err
	}
	sn, err := eco.LoadSnapshot(filepath.Join(s.spool.sessions.dir(m.ID), "snapshot.json"))
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	sess, err := eco.Restore(d, cfg, m.ecoOptions(), sn)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.sessions_rehydrated").Inc()
	s.log.Info("session rehydrated from snapshot", "session", m.ID, "deltas", sn.Deltas)
	return sess, nil
}

// evictIdleSessions drops the in-memory warm state of sessions idle for
// longer than idle. The spooled snapshot stays authoritative, so the next
// delta transparently rehydrates; the manifest stays open.
func (s *Server) evictIdleSessions(idle time.Duration) {
	for _, rt := range s.liveSessions() {
		if !rt.run.TryLock() {
			continue // delta in flight: not idle
		}
		rt.mu.Lock()
		expired := rt.sess != nil && time.Since(rt.lastUsed) >= idle
		if expired {
			rt.sess = nil
		}
		rt.mu.Unlock()
		if expired {
			// Release the telemetry with the warm state: the expvar
			// registration and metric stream go; the next delta's rehydrate
			// rebuilds and republishes them alongside the eco.Session.
			rt.closeTelemetry(s)
		}
		rt.run.Unlock()
		if expired {
			s.reg.Counter("serve.sessions_evicted").Inc()
			s.log.Info("session warm state evicted (snapshot retained)", "session", rt.id)
		}
	}
}

// sessionJanitor periodically evicts idle sessions until the server stops.
func (s *Server) sessionJanitor(idle time.Duration) {
	defer s.wg.Done()
	period := idle / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.schedCtx.Done():
			return
		case <-t.C:
			s.evictIdleSessions(idle)
		}
	}
}

// parkSessions cancels in-flight session work and marks every open
// session parked; a session still opening fails when its canceled base
// placement returns. Called from Drain; in-flight deltas are lost — their
// clients get an error and retry against the restarted daemon, which
// rehydrates from the last completed delta's snapshot.
func (s *Server) parkSessions() {
	for _, rt := range s.liveSessions() {
		rt.mu.Lock()
		if rt.cancel != nil {
			rt.cancel(ErrParked)
		}
		rt.mu.Unlock()
		// Flush the telemetry so parked sessions leave their span trees and
		// metric streams on disk for the next boot's operator.
		rt.closeTelemetry(s)
	}
	if err := s.spool.sessions.sweep(func(m *SessionManifest) func(*SessionManifest) error {
		if m.State == SessionOpen {
			return parkSession
		}
		return nil
	}); err != nil {
		s.log.Error("park sessions", "error", err)
	}
}
