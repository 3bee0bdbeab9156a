package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"puffer/internal/eco"
	"puffer/pipeline"
)

// maxDeltaBytes bounds a posted delta document.
const maxDeltaBytes = 16 << 20

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		APIError(w, http.StatusServiceUnavailable, "daemon is draining; not opening sessions")
		return
	}
	var spec SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		APIError(w, http.StatusBadRequest, "decode session spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		APIError(w, http.StatusBadRequest, "invalid session spec: %v", err)
		return
	}

	m := &SessionManifest{
		ID:       newJobID(),
		Spec:     spec,
		State:    SessionOpening,
		OpenedAt: time.Now().UTC(),
	}
	if err := s.spool.sessions.create(m, spec.Bookshelf); err != nil {
		APIError(w, http.StatusInternalServerError, "spool session: %v", err)
		return
	}
	rt := s.ensureSession(m.ID)
	rt.run.Lock() // released by openSession
	s.wg.Add(1)
	go s.openSession(m, rt)
	s.reg.Counter("serve.sessions_submitted").Inc()
	s.log.InfoContext(r.Context(), "session opening", "session", m.ID, "design", designName(spec.Profile, s.spool.sessions.dir(m.ID)))
	WriteJSON(w, http.StatusAccepted, m)
}

// sessionSummary is one row of the session list endpoint.
type sessionSummary struct {
	ID          string       `json:"id"`
	Design      string       `json:"design"`
	State       SessionState `json:"state"`
	Deltas      int          `json:"deltas"`
	LastHPWL    float64      `json:"last_hpwl,omitempty"`
	Warm        bool         `json:"warm"`
	OpenedAt    time.Time    `json:"opened_at"`
	LastDeltaAt *time.Time   `json:"last_delta_at,omitempty"`
	Error       string       `json:"error,omitempty"`
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	ms, err := s.spool.sessions.list()
	if err != nil {
		APIError(w, http.StatusInternalServerError, "list sessions: %v", err)
		return
	}
	out := make([]sessionSummary, 0, len(ms))
	for _, m := range ms {
		row := sessionSummary{
			ID: m.ID, Design: designName(m.Spec.Profile, s.spool.sessions.dir(m.ID)), State: m.State,
			Deltas: m.Deltas, LastHPWL: m.LastHPWL,
			OpenedAt: m.OpenedAt, LastDeltaAt: m.LastDeltaAt, Error: m.Error,
		}
		if rt, ok := lookup(s, s.sessions, m.ID); ok {
			row.Warm = rt.warm() != nil
		}
		out = append(out, row)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if m := loadRecord(w, r, &s.spool.sessions); m != nil {
		WriteJSON(w, http.StatusOK, m)
	}
}

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

// handleSessionDelta applies one ECO delta synchronously: the warm
// re-place is the fast path (an order of magnitude under the cold wall),
// so the response carries the new placement summary. Progress still
// streams on the session's event hub for watchers. A concurrent delta on
// the same session gets 409 — warm state is inherently single-writer.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		APIError(w, http.StatusServiceUnavailable, "daemon is draining; not accepting deltas")
		return
	}
	m := loadRecord(w, r, &s.spool.sessions)
	if m == nil {
		return
	}
	switch m.State {
	case SessionOpen, SessionParked:
	case SessionOpening:
		APIError(w, http.StatusConflict, "session %s is still opening", m.ID)
		return
	default:
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

	rt := s.ensureSession(m.ID)
	if !rt.run.TryLock() {
		APIError(w, http.StatusConflict, "session %s has a delta in flight", m.ID)
		return
	}
	defer rt.run.Unlock()

	sess := rt.warm()
	rehydrated := false
	if sess == nil {
		sess, err = s.rehydrateSession(m, rt)
		if err != nil {
			APIError(w, http.StatusInternalServerError, "rehydrate session %s: %v", m.ID, err)
			return
		}
		rehydrated = true
	}

	// Tie the warm run to both the client connection and the daemon drain.
	ctx, cancel, untrack := rt.track(r.Context())
	defer untrack()
	stop := context.AfterFunc(s.baseCtx, func() { cancel(ErrParked) })
	defer stop()

	start := time.Now()
	res, err := sess.Apply(ctx, dl)
	if err != nil {
		if errors.Is(err, eco.ErrBadDelta) {
			// Rejected before touching the design: warm state is intact.
			rt.setWarm(sess)
			APIError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		// The in-memory warm state may be mid-flight; drop it so the next
		// delta rehydrates from the last completed delta's snapshot.
		rt.setWarm(nil)
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
	sn, serr := sess.Snapshot()
	if serr == nil {
		serr = sn.Save(filepath.Join(s.spool.sessions.dir(m.ID), "snapshot.json"))
	}
	if serr != nil {
		rt.setWarm(nil)
		APIError(w, http.StatusInternalServerError, "spool snapshot: %v", serr)
		return
	}
	rt.setWarm(sess)

	now := time.Now().UTC()
	um, uerr := s.spool.sessions.update(m.ID, func(mm *SessionManifest) error {
		mm.State = SessionOpen
		mm.Deltas = sn.Deltas
		mm.LastHPWL = sn.LastHPWL
		mm.LastOverflow = sn.LastOverflow
		mm.DesignHash = sn.DesignHash
		mm.LastDeltaAt = &now
		return nil
	})
	if uerr != nil {
		APIError(w, http.StatusInternalServerError, "update session manifest: %v", uerr)
		return
	}
	s.reg.Counter("serve.session_deltas").Inc()
	s.hWarmDelta.ObserveSince(start)
	rt.hub.Publish(Event{Type: "log",
		Line: fmt.Sprintf("delta %d applied: hpwl=%.6g (%s)", um.Deltas, sn.LastHPWL, time.Since(start).Round(time.Millisecond))})
	s.log.InfoContext(r.Context(), "session delta applied",
		"session", m.ID, "delta", um.Deltas, "hpwl", sn.LastHPWL,
		"wall", time.Since(start).Round(time.Millisecond), "rehydrated", rehydrated)
	WriteJSON(w, http.StatusOK, deltaResponse{
		ID:         m.ID,
		Deltas:     um.Deltas,
		HPWL:       res.HPWL,
		GPIters:    res.GP.Iters,
		GPOverflow: res.GP.Overflow,
		RuntimeMS:  float64(time.Since(start)) / float64(time.Millisecond),
		Rehydrated: rehydrated,
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, &s.spool.sessions)
	if m == nil {
		return
	}
	if m.State.Terminal() {
		APIError(w, http.StatusConflict, "session %s already %s", m.ID, m.State)
		return
	}
	// Cancel in-flight work, then mark closed and drop the warm state. The
	// spool directory (snapshot included) is kept for inspection.
	if rt, ok := lookup(s, s.sessions, m.ID); ok {
		rt.mu.Lock()
		if rt.cancel != nil {
			rt.cancel(ErrCanceled)
		}
		rt.sess = nil
		rt.mu.Unlock()
	}
	now := time.Now().UTC()
	um, err := s.spool.sessions.update(m.ID, func(mm *SessionManifest) error {
		mm.State = SessionClosed
		mm.ClosedAt = &now
		return nil
	})
	if err != nil {
		APIError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if rt, ok := lookup(s, s.sessions, m.ID); ok {
		s.endSession(rt, Event{Type: "state", State: JobState(SessionClosed)})
	}
	s.reg.Counter("serve.sessions_closed").Inc()
	s.log.InfoContext(r.Context(), "session closed", "session", m.ID, "deltas", um.Deltas)
	WriteJSON(w, http.StatusOK, um)
}

// handleSessionEvents streams the session's progress hub as SSE, exactly
// like job events; terminal sessions with no retained hub get a single
// synthetic state event.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, &s.spool.sessions)
	if m == nil {
		return
	}
	var hub *Hub
	if rt, ok := lookup(s, s.sessions, m.ID); ok {
		hub = rt.hub
	}
	s.streamHub(w, r, hub, Event{Type: "state", State: JobState(m.State), Error: m.Error})
}
