package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"puffer/internal/cas"
	"puffer/internal/obs"
)

// maxSpecBytes bounds a submission body (inlined Bookshelf uploads
// included) — backpressure starts at the socket.
const maxSpecBytes = 64 << 20

// TenantHeader names the submission header carrying the tenant identity:
// the job waits in that tenant's queue lane. Absent means DefaultTenant.
const TenantHeader = "X-Puffer-Tenant"

// Handler builds the daemon's HTTP surface — the only one in the repo;
// a fleet mounts its extra routes on the same mux in place of the
// (local-only) session routes:
//
//	POST   /api/v1/jobs                   submit (202; 429+Retry-After when full; 503 draining)
//	GET    /api/v1/jobs                   list job summaries
//	GET    /api/v1/jobs/{id}              manifest (durable job record)
//	GET    /api/v1/jobs/{id}/events       SSE progress stream (replay + live)
//	GET    /api/v1/jobs/{id}/result       final result (409 until done)
//	GET    /api/v1/jobs/{id}/artifacts/{name}  spooled artifact download
//	POST   /api/v1/jobs/{id}/cancel       cancel (queued or running)
//	DELETE /api/v1/jobs/{id}              alias for cancel
//	POST   /api/v1/sessions               open an ECO session (202; cold place runs async)
//	GET    /api/v1/sessions               list session summaries
//	GET    /api/v1/sessions/{id}          session manifest
//	POST   /api/v1/sessions/{id}/deltas   apply one ECO delta (synchronous warm re-place)
//	GET    /api/v1/sessions/{id}/events   SSE progress stream (replay + live)
//	DELETE /api/v1/sessions/{id}          close the session
//	GET    /healthz                       liveness (always 200 while the process serves)
//	GET    /readyz                        readiness (503 while draining / saturated / SLO burning / no workers)
//	GET    /api/v1/ops                    operational snapshot (queue, histograms, SLOs, fleet)
//	GET    /metrics, /debug/...           daemon registry (Prometheus, pprof, expvar)
//
// Every route passes through withTelemetry: request latency lands in the
// serve.http_request_seconds histogram and each request logs one
// structured line correlated with any incoming traceparent.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux)
	return s.withTelemetry(mux)
}

func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	if s.fleet != nil {
		s.fleet.Mount(mux)
	} else {
		mux.HandleFunc("POST /api/v1/sessions", s.handleSessionOpen)
		mux.HandleFunc("GET /api/v1/sessions", s.handleSessionList)
		mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleSessionStatus)
		mux.HandleFunc("POST /api/v1/sessions/{id}/deltas", s.handleSessionDelta)
		mux.HandleFunc("GET /api/v1/sessions/{id}/events", s.handleSessionEvents)
		mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.handleSessionClose)
	}
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /api/v1/ops", s.handleOps)

	// The former cmd/puffer -debug-addr surface, folded into the daemon.
	debug := obs.NewDebugMux(s.reg)
	mux.Handle("/debug/", debug)
	mux.Handle("/metrics", debug)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "pufferd placement job service\n\n/api/v1/jobs\n/api/v1/ops\n/healthz\n/readyz\n/metrics\n/debug/pprof/\n/debug/vars\n")
	})
}

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// APIError writes the uniform error body.
func APIError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitError is what Submit refuses with: the HTTP status it maps to and,
// for backpressure (429), the Retry-After hint.
type submitError struct {
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *submitError) Error() string { return e.Msg }

func refuse(status int, format string, args ...any) *submitError {
	return &submitError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Origin is who a submission came from: the tenant lane it waits in, the
// trace it joins, and — for the trial jobs an exploration farm submits on
// its own behalf, which are exempt from the queue cap as the controller
// limits itself to one in-flight trial per relevance group — the parent
// exploration.
type Origin struct {
	Tenant      string
	TraceParent string
	Parent      string
}

// Submit is the one admission path, for the HTTP handler and for a farm's
// trial jobs alike: validate, content-address (fleet), answer from the
// result cache (fleet), spool, enqueue. A refusal leaves
// nothing behind — no job directory, no queue entry, no store reference.
func (s *Server) Submit(spec JobSpec, o Origin) (*Manifest, error) {
	if s.Draining() {
		return nil, refuse(http.StatusServiceUnavailable, "daemon is draining; not admitting jobs")
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, refuse(http.StatusBadRequest, "invalid job spec: %v", err)
	}
	if spec.Distributed && s.fleet == nil {
		return nil, refuse(http.StatusBadRequest,
			"distributed exploration requires a fleet coordinator; this is a worker daemon")
	}
	m := &Manifest{
		ID:          newJobID(),
		Spec:        spec,
		State:       StateQueued,
		Tenant:      o.Tenant,
		Parent:      o.Parent,
		SubmittedAt: time.Now().UTC(),
	}
	// Persist a valid incoming trace context with the job: whoever runs it
	// (possibly after a daemon restart) adopts it, so the job's span tree
	// joins the submitting client's trace.
	if _, err := obs.ParseTraceparent(o.TraceParent); err == nil {
		m.TraceParent = o.TraceParent
	}
	undo := func() {}
	if s.fleet != nil {
		u, err := s.fleet.Admit(m)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrInvalidSpec) {
				status = http.StatusBadRequest
			}
			return nil, refuse(status, "%v", err)
		}
		if u != nil {
			undo = u
		}
	}
	abort := func() {
		os.RemoveAll(s.spool.JobDir(m.ID))
		s.mu.Lock()
		delete(s.jobs, m.ID)
		s.mu.Unlock()
		undo()
	}
	if err := s.spool.CreateJob(m); err != nil {
		abort()
		return nil, refuse(http.StatusInternalServerError, "spool job: %v", err)
	}
	switch {
	case m.State.Terminal(): // answered from the result cache
	case spec.Distributed:
		s.ensureJob(m.ID)
		s.launch(func() { s.runJob(m.ID, s.fleet.Explore, false) })
	default:
		s.ensureJob(m.ID)
		push := s.queue.TryPush
		if o.Parent != "" {
			push = s.queue.ForcePush
		}
		if err := push(m.Tenant, m.ID); err != nil {
			abort()
			if errors.Is(err, ErrQueueFull) {
				s.reg.Counter("serve.jobs_rejected").Inc()
				e := refuse(http.StatusTooManyRequests, "queue full (%d/%d)", s.queue.Len(), s.queue.Cap())
				e.RetryAfter = s.queue.RetryAfter(s.backend.Slots())
				return nil, e
			}
			return nil, refuse(http.StatusServiceUnavailable, "%v", err)
		}
	}
	s.reg.Counter("serve.jobs_submitted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Len()))
	return m, nil
}

// handleSubmit is the one place a JobSpec is decoded off the wire.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		APIError(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	m, err := s.Submit(spec, Origin{
		Tenant:      sanitizeTenant(r.Header.Get(TenantHeader)),
		TraceParent: r.Header.Get(obs.TraceparentHeader),
	})
	if err != nil {
		var se *submitError
		errors.As(err, &se)
		if se.Status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int(se.RetryAfter.Seconds())))
			APIError(w, se.Status, "%s; retry in %s", se.Msg, se.RetryAfter)
			return
		}
		APIError(w, se.Status, "%s", se.Msg)
		return
	}
	if m.CacheHit {
		s.log.InfoContext(r.Context(), "cache hit", "job", m.ID, "origin", m.Origin)
	} else {
		s.log.InfoContext(r.Context(), "job queued", "job", m.ID, "kind", m.Spec.Kind)
	}
	WriteJSON(w, http.StatusAccepted, m)
}

// sanitizeTenant bounds the tenant label (it becomes a queue key and log
// field, never a path); "" when the header is absent or unusable.
func sanitizeTenant(t string) string {
	if len(t) > 64 {
		t = t[:64]
	}
	var b strings.Builder
	for _, c := range t {
		if c > ' ' && c < 0x7f && c != '/' && c != '\\' {
			b.WriteRune(c)
		}
	}
	return b.String()
}

// JobSummary is one row of the list endpoint — the same row on a
// standalone daemon and a coordinator (which fills the fleet fields), and
// never the manifest's inlined design.
type JobSummary struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	Design      string     `json:"design"`
	State       JobState   `json:"state"`
	Stage       string     `json:"stage,omitempty"`
	Attempts    int        `json:"attempts"`
	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	HPWL        float64    `json:"hpwl,omitempty"`
	Error       string     `json:"error,omitempty"`
	Tenant      string     `json:"tenant,omitempty"`
	Node        string     `json:"node,omitempty"`
	Parent      string     `json:"parent,omitempty"`
	CacheHit    bool       `json:"cache_hit,omitempty"`
	Origin      string     `json:"origin,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ms, err := s.spool.List()
	if err != nil {
		APIError(w, http.StatusInternalServerError, "list spool: %v", err)
		return
	}
	out := make([]JobSummary, 0, len(ms))
	for _, m := range ms {
		design := designName(m.Spec.Profile, m.Spec.Bookshelf)
		if design == "" { // an upload whose files live in the fleet's store
			design = cas.Digest(m.DesignDigest).Short()
		}
		row := JobSummary{
			ID: m.ID, Kind: m.Spec.Kind, Design: design, State: m.State,
			Stage: m.Stage, Attempts: m.Attempts,
			SubmittedAt: m.SubmittedAt, FinishedAt: m.FinishedAt, Error: m.Error,
			Tenant: m.Tenant, Node: m.Node, Parent: m.Parent, CacheHit: m.CacheHit, Origin: m.Origin,
		}
		if m.Result != nil {
			row.HPWL = m.Result.HPWL
		}
		out = append(out, row)
	}
	WriteJSON(w, http.StatusOK, out)
}

// loadRecord fetches the job or session manifest for the path's {id},
// writing the 404.
func loadRecord[T any, M interface {
	*T
	record
}](w http.ResponseWriter, r *http.Request, st *store[T, M]) M {
	id := r.PathValue("id")
	m, err := st.read(id)
	if err != nil {
		APIError(w, http.StatusNotFound, "%s %s: %v", st.noun, id, err)
		return nil
	}
	return m
}

// resolveOrigin follows a cache hit to the job that computed the result.
func (s *Server) resolveOrigin(m *Manifest) *Manifest {
	if m.CacheHit && m.Origin != "" {
		if origin, err := s.spool.ReadManifest(m.Origin); err == nil {
			return origin
		}
	}
	return m
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if m := loadRecord(w, r, &s.spool.jobs); m != nil {
		WriteJSON(w, http.StatusOK, m)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, &s.spool.jobs)
	if m == nil {
		return
	}
	if m.State != StateDone {
		APIError(w, http.StatusConflict, "job %s is %s, not done", m.ID, m.State)
		return
	}
	if m.Result == nil {
		m = s.resolveOrigin(m)
	}
	WriteJSON(w, http.StatusOK, m.Result)
}

// handleArtifact serves an artifact from the job's own directory, then —
// for a cache hit — from the job that computed the result, then — for a
// job still running on a fleet worker — from that worker.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, &s.spool.jobs)
	if m == nil {
		return
	}
	name := r.PathValue("name")
	for _, cand := range []*Manifest{m, s.resolveOrigin(m)} {
		path, err := s.spool.ArtifactPath(cand.ID, name)
		if err != nil {
			APIError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if st, serr := os.Stat(path); serr == nil && !st.IsDir() {
			http.ServeFile(w, r, path)
			return
		}
	}
	if s.fleet != nil && m.RemoteID != "" && !m.State.Terminal() {
		if data, err := s.fleet.Artifact(r.Context(), m, name); err == nil {
			w.Write(data)
			return
		}
	}
	APIError(w, http.StatusNotFound, "job %s has no artifact %q", m.ID, name)
}

// Cancel cancels a job with the given reason. A job still waiting (queued
// or parked) is canceled durably on the spot and its final manifest
// returned; a running one is canceled through its context — the backend
// winds it down and the core records the state — and (nil, nil) returned.
func (s *Server) Cancel(id, reason string) (*Manifest, error) {
	waiting := false
	m, err := s.spool.Update(id, func(mm *Manifest) error {
		if waiting = mm.State == StateQueued || mm.State == StateParked; waiting {
			now := time.Now()
			mm.State = StateCanceled
			mm.Error = reason
			mm.FinishedAt = &now
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	a, live := lookup(s, s.jobs, id)
	if !waiting {
		// Running (a claim may have raced the read): only its context acts.
		if live {
			s.mu.Lock()
			cancel := a.cancel
			s.mu.Unlock()
			if cancel != nil {
				cancel(ErrCanceled)
			}
		}
		return nil, nil
	}
	s.reg.Counter("serve.jobs_canceled").Inc()
	s.onTerminal(m)
	if live {
		a.hub.Publish(Event{Type: "state", State: StateCanceled, Error: m.Error})
		a.hub.Close()
	}
	// The job never reached a backend, so no runJob call will retire it;
	// enroll the hub in retention here or it leaks forever.
	retire(s, &s.finished, s.jobs, id)
	return m, nil
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, &s.spool.jobs)
	if m == nil {
		return
	}
	if m.State.Terminal() {
		APIError(w, http.StatusConflict, "job %s already %s", m.ID, m.State)
		return
	}
	final, err := s.Cancel(m.ID, ErrCanceled.Error())
	switch {
	case err != nil:
		APIError(w, http.StatusInternalServerError, "%v", err)
	case final != nil:
		WriteJSON(w, http.StatusOK, final)
	default:
		WriteJSON(w, http.StatusAccepted, map[string]string{"id": m.ID, "state": "canceling"})
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":      s.status(),
		"queue_depth": s.queue.Len(),
		"queue_cap":   s.queue.Cap(),
		"workers":     s.backend.Slots(),
		"active_jobs": s.activeCount(),
	}
	if s.fleet != nil {
		for k, v := range s.fleet.Ops(false) {
			doc[k] = v
		}
	}
	WriteJSON(w, http.StatusOK, doc)
}

func (s *Server) status() string {
	if s.Draining() {
		return "draining"
	}
	return "serving"
}

// handleEvents streams the job's progress as server-sent events: the
// retained replay first, then live events until the job finishes or the
// client disconnects. Terminal jobs with no retained hub get a single
// synthetic state event so `pufferctl watch` always terminates.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, &s.spool.jobs)
	if m == nil {
		return
	}
	var hub *Hub
	if a, ok := lookup(s, s.jobs, m.ID); ok {
		hub = a.hub
	}
	s.streamHub(w, r, hub, Event{Type: "state", State: m.State, Error: m.Error})
}

// streamHub writes an SSE stream from hub: the retained replay first, then
// live events until the stream closes or the client disconnects. When the
// stream closes, whatever the live channel dropped since the last event
// written is replayed from the hub's ring, so the stream always ends on
// the terminal state. A nil hub
// (no runtime this boot, or retention expired) gets the single synthetic
// fallback event so watchers always terminate. Each live write+flush is
// timed into serve.sse_fanout_seconds — the latency a watcher sees between
// an event being published and reaching its socket buffer.
func (s *Server) streamHub(w http.ResponseWriter, r *http.Request, hub *Hub, fallback Event) {
	fl, ok := w.(http.Flusher)
	if !ok {
		APIError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	last := 0 // Seq of the last event written
	writeEvent := func(e Event) {
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		last = e.Seq
	}

	if hub == nil {
		writeEvent(fallback)
		fl.Flush()
		return
	}
	replay, live, cancel := hub.Subscribe()
	defer cancel()
	for _, e := range replay {
		writeEvent(e)
	}
	fl.Flush()
	for {
		select {
		case e, open := <-live:
			if !open {
				for _, e := range hub.since(last) {
					writeEvent(e)
				}
				fl.Flush()
				return
			}
			t0 := time.Now()
			writeEvent(e)
			fl.Flush()
			s.hSSE.ObserveSince(t0)
		case <-r.Context().Done():
			return
		}
	}
}
