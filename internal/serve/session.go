package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"puffer/internal/bookshelf"
	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/synth"
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
	if (s.Profile == "") == (len(s.Bookshelf) == 0) {
		return fmt.Errorf("exactly one of profile and bookshelf must be set")
	}
	for name := range s.Bookshelf {
		if name == "" || strings.Contains(name, "/") || strings.Contains(name, "\\") || strings.Contains(name, "..") {
			return fmt.Errorf("bookshelf file name %q must be a bare file name", name)
		}
	}
	if len(s.Bookshelf) > 0 {
		aux := 0
		for name := range s.Bookshelf {
			if strings.HasSuffix(name, ".aux") {
				aux++
			}
		}
		if aux != 1 {
			return fmt.Errorf("bookshelf upload needs exactly one .aux file, got %d", aux)
		}
	}
	if s.Scale < 0 || s.MaxIters < 0 || s.Workers < 0 || s.WarmMaxIters < 0 || s.WarmMinIters < 0 {
		return fmt.Errorf("negative scale/max_iters/workers/warm_max_iters/warm_min_iters")
	}
	return nil
}

// AuxName returns the name of the spec's .aux file ("" for profile specs).
func (s *SessionSpec) AuxName() string {
	for name := range s.Bookshelf {
		if strings.HasSuffix(name, ".aux") {
			return name
		}
	}
	return ""
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

// --- session spool -------------------------------------------------------

// SessionDir returns the directory of one session.
func (sp *Spool) SessionDir(id string) string { return filepath.Join(sp.root, "sessions", id) }

// SessionSnapshotPath returns the session's eco snapshot path.
func (sp *Spool) SessionSnapshotPath(id string) string {
	return filepath.Join(sp.SessionDir(id), "snapshot.json")
}

// SessionAuxPath returns the path of the session's uploaded .aux file
// ("" for profile sessions).
func (sp *Spool) SessionAuxPath(m *SessionManifest) string {
	aux := m.Spec.AuxName()
	if aux == "" {
		return ""
	}
	return filepath.Join(sp.SessionDir(m.ID), "design", aux)
}

// CreateSession allocates a session directory, writes the uploaded design
// files (if any), and persists the initial opening manifest.
func (sp *Spool) CreateSession(m *SessionManifest) error {
	dir := sp.SessionDir(m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: create session dir: %w", err)
	}
	if len(m.Spec.Bookshelf) > 0 {
		ddir := filepath.Join(dir, "design")
		if err := os.MkdirAll(ddir, 0o755); err != nil {
			return err
		}
		for name, content := range m.Spec.Bookshelf {
			if err := os.WriteFile(filepath.Join(ddir, name), []byte(content), 0o644); err != nil {
				return fmt.Errorf("serve: write design file %s: %w", name, err)
			}
		}
	}
	return sp.WriteSessionManifest(m)
}

// WriteSessionManifest persists m atomically.
func (sp *Spool) WriteSessionManifest(m *SessionManifest) error {
	m.Format = SessionManifestFormat
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode session manifest: %w", err)
	}
	return atomicWriteFile(filepath.Join(sp.SessionDir(m.ID), "manifest.json"), append(data, '\n'))
}

// ReadSessionManifest loads one session's manifest.
func (sp *Spool) ReadSessionManifest(id string) (*SessionManifest, error) {
	data, err := os.ReadFile(filepath.Join(sp.SessionDir(id), "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &SessionManifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("serve: decode manifest for session %s: %w", id, err)
	}
	if m.Format != SessionManifestFormat {
		return nil, fmt.Errorf("serve: session %s: manifest format %q, want %q", id, m.Format, SessionManifestFormat)
	}
	return m, nil
}

// UpdateSession applies fn to the session's manifest under the spool lock
// and persists the result.
func (sp *Spool) UpdateSession(id string, fn func(*SessionManifest) error) (*SessionManifest, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	m, err := sp.ReadSessionManifest(id)
	if err != nil {
		return nil, err
	}
	if err := fn(m); err != nil {
		return m, err
	}
	if err := sp.WriteSessionManifest(m); err != nil {
		return m, err
	}
	return m, nil
}

// ListSessions returns every session manifest in the spool, oldest open
// first. Unreadable manifests are skipped, like job List.
func (sp *Spool) ListSessions() ([]*SessionManifest, error) {
	entries, err := os.ReadDir(filepath.Join(sp.root, "sessions"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []*SessionManifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := sp.ReadSessionManifest(e.Name())
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	// Oldest first, ID tiebreak — stable across boots.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.OpenedAt.Before(b.OpenedAt) || (a.OpenedAt.Equal(b.OpenedAt) && a.ID < b.ID) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out, nil
}

// RecoverSessions marks the sessions a booting daemon inherits: sessions
// still opening when the previous daemon died have no snapshot and fail;
// open or parked ones park (the next delta rehydrates them from the
// spooled snapshot).
func (sp *Spool) RecoverSessions() (parked, failed []*SessionManifest, err error) {
	all, lerr := sp.ListSessions()
	if lerr != nil {
		return nil, nil, lerr
	}
	for _, m := range all {
		switch m.State {
		case SessionOpening:
			um, uerr := sp.UpdateSession(m.ID, func(mm *SessionManifest) error {
				mm.State = SessionFailed
				mm.Error = "daemon restarted before the base placement finished"
				return nil
			})
			if uerr != nil {
				return nil, nil, uerr
			}
			failed = append(failed, um)
		case SessionOpen, SessionParked:
			um, uerr := sp.UpdateSession(m.ID, func(mm *SessionManifest) error {
				mm.State = SessionParked
				return nil
			})
			if uerr != nil {
				return nil, nil, uerr
			}
			parked = append(parked, um)
		}
	}
	return parked, failed, nil
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

	mu          sync.Mutex // guards the fields below
	sess        *eco.Session
	cancel      context.CancelCauseFunc // non-nil while work is in flight
	lastUsed    time.Time
	reg         *obs.Registry
	rec         *obs.Recorder
	metricsF    *os.File
	metricsSink obs.Sink
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

// sessionRuntimeFor returns the runtime entry for id, if this boot has one.
func (s *Server) sessionRuntimeFor(id string) (*sessionRuntime, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.sessions[id]
	return rt, ok
}

// telemetry returns the runtime's recorder and hub-connected registry,
// wiring them (and the spooled metrics.jsonl, and the live expvar
// registration) on first use. A rehydrate after closeTelemetry rebuilds
// everything, so an evicted-then-warmed session republishes its registry.
func (rt *sessionRuntime) telemetry(s *Server, id string) *obs.Recorder {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.rec != nil {
		return rt.rec
	}
	sinks := []obs.Sink{hubSink{rt.hub}}
	mp := filepath.Join(s.spool.SessionDir(id), "metrics.jsonl")
	if f, err := os.OpenFile(mp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		rt.metricsF = f
		rt.metricsSink = obs.NewJSONLSink(f)
		sinks = append(sinks, rt.metricsSink)
	}
	rt.reg = obs.NewRegistry(sinks...)
	rt.rec = obs.NewRecorder(obs.NewTracer(), rt.reg)
	obs.PublishExpvar("session-"+id, rt.reg)
	return rt.rec
}

// closeTelemetry flushes and releases the runtime's telemetry: the metric
// stream closes, the session's span tree (base placement plus every warm
// delta applied since the last rehydrate) spools as trace.json, the expvar
// registration is dropped, and the recorder is cleared so the next
// rehydrate starts fresh. Called on close, open failure, and idle
// eviction — without the unpublish here, evicted sessions would pin their
// registries in the process-global expvar map forever.
func (rt *sessionRuntime) closeTelemetry(s *Server) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.rec != nil {
		if tr := rt.rec.Tracer(); tr.Len() > 0 {
			tp := filepath.Join(s.spool.SessionDir(rt.id), "trace.json")
			if err := tr.WriteFile(tp); err != nil {
				s.log.Error("write session trace", "session", rt.id, "error", err)
			}
		}
		obs.UnpublishExpvar("session-" + rt.id)
		rt.rec = nil
		rt.reg = nil
	}
	if rt.metricsSink != nil {
		rt.metricsSink.Flush()
		rt.metricsSink = nil
	}
	if rt.metricsF != nil {
		rt.metricsF.Close()
		rt.metricsF = nil
	}
}

// sessionDesign materializes the session's design: a deterministic
// synthetic profile or the spooled Bookshelf upload — both rebuild
// bit-identically on rehydrate, which eco.Restore verifies by design hash.
func (s *Server) sessionDesign(m *SessionManifest) (*netlist.Design, error) {
	if m.Spec.Profile != "" {
		p, err := synth.ProfileByName(m.Spec.Profile)
		if err != nil {
			return nil, err
		}
		return synth.Generate(p, m.Spec.Scale, m.Spec.Seed), nil
	}
	return bookshelf.Parse(s.spool.SessionAuxPath(m))
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

	ctx, cancel := context.WithCancelCause(s.baseCtx)
	rt.mu.Lock()
	rt.cancel = cancel
	rt.mu.Unlock()
	defer func() {
		cancel(nil)
		rt.mu.Lock()
		rt.cancel = nil
		rt.mu.Unlock()
	}()

	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		s.log.Error("session open failed", "session", id, "error", msg)
		s.spool.UpdateSession(id, func(mm *SessionManifest) error {
			mm.State = SessionFailed
			mm.Error = msg
			return nil
		})
		rt.hub.Publish(Event{Type: "state", State: JobState(SessionFailed), Error: msg})
		rt.hub.Close()
		rt.closeTelemetry(s)
		s.retireSession(id)
	}

	d, err := s.sessionDesign(m)
	if err != nil {
		fail("build design: %v", err)
		return
	}
	cfg, err := flowConfig(m.Spec.Seed, m.Spec.MaxIters, m.Spec.Workers, m.Spec.Strategy, rt.telemetry(s, id), rt.hub)
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
		err = sn.Save(s.spool.SessionSnapshotPath(id))
	}
	if err != nil {
		fail("spool snapshot: %v", err)
		return
	}

	rt.mu.Lock()
	rt.sess = sess
	rt.lastUsed = time.Now()
	rt.mu.Unlock()
	s.spool.UpdateSession(id, func(mm *SessionManifest) error {
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
	d, err := s.sessionDesign(m)
	if err != nil {
		return nil, fmt.Errorf("rebuild design: %w", err)
	}
	cfg, err := flowConfig(m.Spec.Seed, m.Spec.MaxIters, m.Spec.Workers, m.Spec.Strategy, rt.telemetry(s, m.ID), rt.hub)
	if err != nil {
		return nil, err
	}
	sn, err := eco.LoadSnapshot(s.spool.SessionSnapshotPath(m.ID))
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
	s.mu.Lock()
	type cand struct {
		id string
		rt *sessionRuntime
	}
	var cands []cand
	for id, rt := range s.sessions {
		cands = append(cands, cand{id, rt})
	}
	s.mu.Unlock()
	for _, c := range cands {
		if !c.rt.run.TryLock() {
			continue // delta in flight: not idle
		}
		c.rt.mu.Lock()
		expired := c.rt.sess != nil && time.Since(c.rt.lastUsed) >= idle
		if expired {
			c.rt.sess = nil
		}
		c.rt.mu.Unlock()
		if expired {
			// Release the telemetry with the warm state: the expvar
			// registration and metric stream go; the next delta's rehydrate
			// rebuilds and republishes them alongside the eco.Session.
			c.rt.closeTelemetry(s)
		}
		c.rt.run.Unlock()
		if expired {
			s.reg.Counter("serve.sessions_evicted").Inc()
			s.log.Info("session warm state evicted (snapshot retained)", "session", c.id)
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

// parkSessions marks every non-terminal session parked (terminally failing
// the ones still opening) and cancels in-flight session work. Called from
// Drain; in-flight deltas are lost — their clients get an error and retry
// against the restarted daemon, which rehydrates from the last completed
// delta's snapshot.
func (s *Server) parkSessions() {
	s.mu.Lock()
	var cancels []context.CancelCauseFunc
	for _, rt := range s.sessions {
		rt.mu.Lock()
		if rt.cancel != nil {
			cancels = append(cancels, rt.cancel)
		}
		rt.mu.Unlock()
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c(ErrParked)
	}
	// Flush each runtime's telemetry so parked sessions leave their span
	// trees and metric streams on disk for the next boot's operator.
	s.mu.Lock()
	rts := make([]*sessionRuntime, 0, len(s.sessions))
	for _, rt := range s.sessions {
		rts = append(rts, rt)
	}
	s.mu.Unlock()
	for _, rt := range rts {
		rt.closeTelemetry(s)
	}
	all, err := s.spool.ListSessions()
	if err != nil {
		s.log.Error("park sessions", "error", err)
		return
	}
	for _, m := range all {
		if m.State != SessionOpen && m.State != SessionParked {
			continue
		}
		if _, err := s.spool.UpdateSession(m.ID, func(mm *SessionManifest) error {
			if mm.State == SessionOpen {
				mm.State = SessionParked
			}
			return nil
		}); err != nil {
			s.log.Error("park session", "session", m.ID, "error", err)
		}
	}
}
