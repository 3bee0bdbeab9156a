package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"puffer/internal/eco"
	"puffer/internal/obs"
	"puffer/pipeline"
)

// maxDeltaBytes bounds a posted delta document.
const maxDeltaBytes = 16 << 20

// warmSession is what a session job keeps in memory between deltas: the
// live eco.Session (nil when evicted or parked — rehydrated lazily from
// the spooled snapshot on the next delta) and the telemetry its runs
// record into. run serializes the session's deltas, so a concurrent delta
// gets 409.
type warmSession struct {
	id  string
	run sync.Mutex // held while a delta applies, and by eviction and drain

	mu       sync.Mutex // guards the fields below
	sess     *eco.Session
	lastUsed time.Time
	tel      *runTelemetry // nil until the first run of this warm period
}

// session returns the session job's warm-state entry, creating the job's
// runtime and the entry on first use this boot.
func (s *Server) session(id string) (*activeJob, *warmSession) {
	a := s.ensureJob(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.eco == nil {
		a.eco = &warmSession{id: id, lastUsed: time.Now()}
	}
	return a, a.eco
}

// liveSessions returns the warm-state entries this boot holds.
func (s *Server) liveSessions() []*warmSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*warmSession
	for _, a := range s.jobs {
		if a.eco != nil {
			out = append(out, a.eco)
		}
	}
	return out
}

// warm returns the in-memory eco.Session, nil when the next delta must
// rehydrate it from the spooled snapshot.
func (ws *warmSession) warm() *eco.Session {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.sess
}

// setWarm installs the in-memory warm state.
func (ws *warmSession) setWarm(sess *eco.Session) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.sess, ws.lastUsed = sess, time.Now()
}

// drop releases the warm state and the telemetry: the span tree recorded
// since the last rehydrate spools as trace.json and the metric stream
// flushes and closes. It reports whether there was warm state to drop.
func (ws *warmSession) drop(s *Server) bool {
	ws.mu.Lock()
	warm, tel := ws.sess != nil, ws.tel
	ws.sess, ws.tel = nil, nil
	ws.mu.Unlock()
	if tel != nil {
		if err := tel.close(); err != nil {
			s.log.Error("spool session telemetry", "job", ws.id, "error", err)
		}
	}
	return warm
}

// recorder returns the session's telemetry recorder, opening the run
// telemetry on first use of a warm period, so a rehydrated session
// republishes its registry.
func (s *Server) recorder(ws *warmSession, m *Manifest, hub *Hub) *obs.Recorder {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.tel == nil {
		ws.tel = openTelemetry(s.spool.JobDir(m.ID), hub, m.TraceParent)
	}
	return ws.tel.rec
}

// execSession runs a session job's base placement and spools its
// snapshot. On success the session's warm state — the eco.Session and tel,
// which stays open for the deltas to record into — is installed.
func (s *Server) execSession(ctx context.Context, m *Manifest, hub *Hub, tel *runTelemetry) (*JobResult, error) {
	start := time.Now()
	d, cfg, err := s.jobFlow(m, hub, tel.rec)
	if err != nil {
		return nil, err
	}
	sess, err := eco.New(d, cfg, eco.Options{})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	res, err := sess.Place(ctx)
	if err != nil {
		return nil, err
	}
	sn, err := sess.Snapshot()
	if err == nil {
		err = sn.Save(s.spool.SnapshotPath(m.ID))
	}
	if err != nil {
		return nil, fmt.Errorf("spool snapshot: %w", err)
	}
	_, ws := s.session(m.ID)
	ws.mu.Lock()
	ws.sess, ws.tel, ws.lastUsed = sess, tel, time.Now()
	ws.mu.Unlock()
	s.hColdOpen.ObserveSince(start)
	return placementResult(res, start), nil
}

// placementResult is the manifest result of one session placement, the
// base or a delta's, started at start.
func placementResult(res *pipeline.Result, start time.Time) *JobResult {
	return &JobResult{
		HPWL:       res.HPWL,
		GPIters:    res.GP.Iters,
		GPOverflow: res.GP.Overflow,
		RuntimeMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// rehydrate rebuilds the in-memory eco.Session of a parked or evicted
// session from the spooled snapshot. Caller holds ws.run.
func (s *Server) rehydrate(m *Manifest, hub *Hub, ws *warmSession) (*eco.Session, error) {
	d, cfg, err := s.jobFlow(m, hub, s.recorder(ws, m, hub))
	if err != nil {
		return nil, err
	}
	sn, err := eco.LoadSnapshot(s.spool.SnapshotPath(m.ID))
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	sess, err := eco.Restore(d, cfg, eco.Options{}, sn)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.sessions_rehydrated").Inc()
	s.log.Info("session rehydrated from snapshot", "job", m.ID, "deltas", sn.Deltas)
	return sess, nil
}

// park drops an open session's warm state and telemetry and marks it
// parked: the spooled snapshot carries it, and the next delta rehydrates.
// It reports whether there was warm state to drop. Caller holds ws.run.
func (s *Server) park(ws *warmSession) bool {
	if !ws.drop(s) {
		return false
	}
	if _, err := s.spool.Update(ws.id, func(mm *Manifest) error {
		if mm.State == StateOpen {
			mm.State = StateParked
		}
		return nil
	}); err != nil {
		s.log.Error("park session", "job", ws.id, "error", err)
	}
	return true
}

// evictIdleSessions parks the sessions whose warm state has sat unused for
// longer than idle.
func (s *Server) evictIdleSessions(idle time.Duration) {
	for _, ws := range s.liveSessions() {
		if !ws.run.TryLock() {
			continue // delta in flight: not idle
		}
		ws.mu.Lock()
		expired := ws.sess != nil && time.Since(ws.lastUsed) >= idle
		ws.mu.Unlock()
		evicted := expired && s.park(ws)
		ws.run.Unlock()
		if evicted {
			s.reg.Counter("serve.sessions_evicted").Inc()
			s.log.Info("session warm state evicted (snapshot retained)", "job", ws.id)
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

// parkSessions parks every open session of this boot, once Drain has
// canceled the deltas in flight: their clients get an error and retry
// against the restarted daemon, which rehydrates from the last completed
// delta's snapshot.
func (s *Server) parkSessions() {
	for _, ws := range s.liveSessions() {
		ws.run.Lock()
		s.park(ws)
		ws.run.Unlock()
	}
}

// errSessionEnded refuses a delta's manifest edit on a session that was
// canceled while the delta ran.
var errSessionEnded = errors.New("session ended")

// deltaResponse is the body of a successful delta application.
type deltaResponse struct {
	ID         string  `json:"id"`
	Deltas     int     `json:"deltas"`
	HPWL       float64 `json:"hpwl"`
	GPIters    int     `json:"gp_iters"`
	GPOverflow float64 `json:"gp_overflow"`
	RuntimeMS  float64 `json:"runtime_ms"`
	Rehydrated bool    `json:"rehydrated,omitempty"`
}

// handleDelta applies one ECO delta to an open or parked session job
// synchronously: the warm re-place is the fast path (an order of
// magnitude under the cold wall), so the response carries the new
// placement summary. Progress still streams on the job's event hub for
// watchers. A concurrent delta on the same session gets 409 — warm state
// is inherently single-writer.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		APIError(w, http.StatusServiceUnavailable, "daemon is draining; not accepting deltas")
		return
	}
	m := s.loadJob(w, r)
	if m == nil {
		return
	}
	switch {
	case m.Spec.Kind != KindSession:
		APIError(w, http.StatusConflict, "job %s is a %s job, not a session", m.ID, m.Spec.Kind)
		return
	case m.State == StateQueued || m.State == StateRunning:
		APIError(w, http.StatusConflict, "session %s is %s: its base placement has not finished", m.ID, m.State)
		return
	case m.State != StateOpen && m.State != StateParked:
		APIError(w, http.StatusConflict, "session %s is %s", m.ID, m.State)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltaBytes))
	if err != nil {
		APIError(w, http.StatusBadRequest, "read delta: %v", err)
		return
	}
	dl, err := eco.ParseDelta(body)
	if err != nil {
		APIError(w, http.StatusBadRequest, "%v", err)
		return
	}

	a, ws := s.session(m.ID)
	if !ws.run.TryLock() {
		APIError(w, http.StatusConflict, "session %s has a delta in flight", m.ID)
		return
	}
	defer ws.run.Unlock()

	sess := ws.warm()
	rehydrated := false
	if sess == nil {
		sess, err = s.rehydrate(m, a.hub, ws)
		if err != nil {
			APIError(w, http.StatusInternalServerError, "rehydrate session %s: %v", m.ID, err)
			return
		}
		rehydrated = true
	}

	// Tie the warm run to the client connection, Cancel and the drain.
	ctx, untrack := s.track(a, r.Context())
	defer untrack()
	start := time.Now()
	res, err := sess.Apply(ctx, dl)
	if err != nil {
		if errors.Is(err, eco.ErrBadDelta) {
			// Rejected before touching the design: warm state is intact.
			ws.setWarm(sess)
			APIError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		// The in-memory warm state may be mid-flight; park the session so
		// the next delta rehydrates from the last completed delta's
		// snapshot.
		s.park(ws)
		switch {
		case errors.Is(context.Cause(ctx), ErrParked):
			APIError(w, http.StatusServiceUnavailable,
				"daemon draining: delta lost; retry after the daemon restarts")
		case errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled):
			APIError(w, http.StatusServiceUnavailable, "delta canceled: %v", context.Cause(ctx))
		default:
			APIError(w, http.StatusUnprocessableEntity, "apply delta: %v", err)
		}
		return
	}

	// Spool the new snapshot before acknowledging: once the client sees
	// 200, a parked/crashed daemon must resume from *this* delta.
	sn, err := sess.Snapshot()
	if err == nil {
		err = sn.Save(s.spool.SnapshotPath(m.ID))
	}
	result := placementResult(res, start)
	result.Artifacts = s.listArtifacts(m.ID)
	if err == nil {
		err = s.commitDelta(ws, sess, result)
	}
	switch {
	case errors.Is(err, errSessionEnded):
		APIError(w, http.StatusConflict, "session %s was canceled while the delta ran", m.ID)
		return
	case err != nil:
		s.park(ws)
		APIError(w, http.StatusInternalServerError, "spool delta: %v", err)
		return
	}
	s.hWarmDelta.ObserveSince(start)
	a.hub.Publish(Event{Type: "log",
		Line: fmt.Sprintf("delta %d applied: hpwl=%.6g (%s)", sn.Deltas, res.HPWL, time.Since(start).Round(time.Millisecond))})
	s.log.InfoContext(r.Context(), "session delta applied",
		"job", m.ID, "delta", sn.Deltas, "hpwl", res.HPWL,
		"wall", time.Since(start).Round(time.Millisecond), "rehydrated", rehydrated)
	WriteJSON(w, http.StatusOK, deltaResponse{
		ID:         m.ID,
		Deltas:     sn.Deltas,
		HPWL:       result.HPWL,
		GPIters:    result.GPIters,
		GPOverflow: result.GPOverflow,
		RuntimeMS:  result.RuntimeMS,
		Rehydrated: rehydrated,
	})
}

// commitDelta makes an applied delta durable: the manifest reopens with
// the delta's result and the warm state is installed, both under the spool
// lock, so a Cancel lands wholly before (the edit refuses with
// errSessionEnded and the warm state is dropped) or wholly after (it
// drops the warm state installed here). Caller holds ws.run.
func (s *Server) commitDelta(ws *warmSession, sess *eco.Session, result *JobResult) error {
	_, err := s.spool.Update(ws.id, func(mm *Manifest) error {
		if mm.State.Terminal() {
			return errSessionEnded
		}
		mm.State, mm.Result = StateOpen, result
		ws.setWarm(sess)
		return nil
	})
	if errors.Is(err, errSessionEnded) {
		ws.drop(s)
	}
	return err
}
