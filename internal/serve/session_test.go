package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// quickSessionSpec opens a session over the same small-but-complete design
// quickSpec uses for jobs.
func quickSessionSpec() JobSpec {
	s := JobSpec{Kind: KindSession, Profile: "MEDIA_SUBSYS", Scale: 3000, Seed: 5}
	s.Normalize()
	return s
}

// sessionDelta builds a delta document moving n movable cells of the
// spec's design to scattered absolute positions inside the region.
func sessionDelta(t *testing.T, spec JobSpec, n int, slot int) []byte {
	t.Helper()
	p, err := synth.ProfileByName(spec.Profile)
	if err != nil {
		t.Fatal(err)
	}
	return designDelta(t, synth.Generate(p, spec.Scale, spec.Seed), n, slot)
}

// designDelta is sessionDelta for a design already in hand.
func designDelta(t *testing.T, d *netlist.Design, n int, slot int) []byte {
	t.Helper()
	type move struct {
		Cell int     `json:"cell"`
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
	}
	var moves []move
	w, h := d.Region.W(), d.Region.H()
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			continue
		}
		k := len(moves)
		frac := 0.2 + 0.6*float64(k*7%13)/13
		moves = append(moves, move{
			Cell: i,
			X:    d.Region.Lo.X + frac*w,
			Y:    d.Region.Lo.Y + (0.25+0.1*float64(slot))*h,
		})
		if len(moves) == n {
			break
		}
	}
	if len(moves) < n {
		t.Fatalf("design has only %d movable cells, want %d", len(moves), n)
	}
	data, err := json.Marshal(map[string]any{"format": "puffer/delta/v1", "moves": moves})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitHTTP posts spec to the job API and returns the admitted manifest.
func submitHTTP(t *testing.T, ts *httptest.Server, spec JobSpec) *Manifest {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ID == "" || m.State != StateQueued {
		t.Fatalf("submit returned %+v", m)
	}
	return &m
}

// openSessionHTTP submits a session job and waits until it is open.
func openSessionHTTP(t *testing.T, ts *httptest.Server, s *Server, spec JobSpec) *Manifest {
	t.Helper()
	return waitState(t, s, submitHTTP(t, ts, spec).ID, StateOpen)
}

// cancelHTTP closes a session through the job API's cancel route.
func cancelHTTP(t *testing.T, ts *httptest.Server, id string) *Manifest {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// postDelta applies a delta document, returning the HTTP status and the
// decoded success body (zero-valued on non-200).
func postDelta(t *testing.T, ts *httptest.Server, id string, delta []byte) (int, deltaResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+id+"/deltas", "application/json", bytes.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dr deltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, dr
}

// snapshotOf loads the session's spooled eco snapshot.
func snapshotOf(t *testing.T, s *Server, id string) *eco.Snapshot {
	t.Helper()
	sn, err := eco.LoadSnapshot(s.spool.SnapshotPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// warmState returns the session's in-memory warm state, nil when it has
// none (or no runtime this boot).
func warmState(s *Server, id string) *eco.Session {
	if a, ok := s.job(id); ok {
		if ws := s.warmOf(a); ws != nil {
			return ws.warm()
		}
	}
	return nil
}

// TestSessionLifecycleHTTP walks a session job through the job routes:
// it waits for a worker slot like any job, opens, takes deltas, lists,
// and closes through cancel with its last result kept.
func TestSessionLifecycleHTTP(t *testing.T) {
	s := newTestServer(t, Config{}) // one worker
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A session is admitted like any job: with the one slot held, it
	// stays queued until the slot frees.
	busy := submitHTTP(t, ts, slowSpec())
	waitEvent(t, s, busy.ID, isState(StateRunning))
	spec := quickSessionSpec()
	queued := submitHTTP(t, ts, spec)
	time.Sleep(200 * time.Millisecond)
	if m, _ := s.spool.ReadManifest(queued.ID); m.State != StateQueued {
		t.Fatalf("session behind a running job is %s, want queued", m.State)
	}
	if _, err := s.Cancel(busy.ID, ""); err != nil {
		t.Fatal(err)
	}
	m := waitState(t, s, queued.ID, StateOpen)
	if m.Result == nil || m.Result.HPWL <= 0 || snapshotOf(t, s, m.ID).DesignHash == "" {
		t.Fatalf("open session manifest %+v", m)
	}
	// Deltas are a session's: a place job refuses them.
	if code, _ := postDelta(t, ts, busy.ID, sessionDelta(t, spec, 3, 0)); code != http.StatusConflict {
		t.Fatalf("delta on a place job status %d", code)
	}

	// Malformed deltas are rejected by the strict decoder before any
	// engine work.
	if code, _ := postDelta(t, ts, m.ID, []byte(`{"movez":[]}`)); code != http.StatusBadRequest {
		t.Fatalf("unknown-field delta status %d", code)
	}
	if code, _ := postDelta(t, ts, m.ID, []byte(`{} trailing`)); code != http.StatusBadRequest {
		t.Fatalf("trailing-data delta status %d", code)
	}
	// An empty delta parses but cannot be applied.
	if code, _ := postDelta(t, ts, m.ID, []byte(`{}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("empty delta status %d", code)
	}

	code, dr := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 0))
	if code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}
	if dr.Deltas != 1 || dr.HPWL <= 0 || dr.Rehydrated {
		t.Fatalf("delta response %+v", dr)
	}

	// The list shows the session open (warm) with the delta's placement,
	// and its snapshot holds the one delta.
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var rows []JobSummary
	json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	found := false
	for _, row := range rows {
		if row.ID == m.ID {
			found = true
			if row.Kind != KindSession || row.State != StateOpen || row.HPWL != dr.HPWL ||
				snapshotOf(t, s, m.ID).Deltas != 1 || warmState(s, m.ID) == nil {
				t.Fatalf("session row %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("session %s missing from list %+v", m.ID, rows)
	}

	// Close through cancel: the session ends canceled with its last
	// result, and no further deltas are accepted.
	closed := cancelHTTP(t, ts, m.ID)
	if closed.State != StateCanceled || closed.Result == nil || closed.Result.HPWL != dr.HPWL {
		t.Fatalf("closed session manifest %+v", closed)
	}
	if code, _ := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 1)); code != http.StatusConflict {
		t.Fatalf("delta on closed session status %d", code)
	}
}

// TestSessionCancelDuringDelta: a cancel that lands after a delta's warm
// re-place returns but before the delta's manifest edit wins. The edit
// refuses the terminal manifest, the durable state stays canceled with the
// last acknowledged result, and the runtime holds no warm session.
func TestSessionCancelDuringDelta(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSessionSpec()
	m := openSessionHTTP(t, ts, s, spec)
	a, ws := s.session(m.ID)

	// The delta's own steps, as handleDelta takes them, with the cancel
	// between Apply and the manifest edit.
	ws.run.Lock()
	dl, err := eco.ParseDelta(sessionDelta(t, spec, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, untrack := s.track(a, context.Background())
	sess := ws.warm()
	res, err := sess.Apply(ctx, dl)
	if err != nil {
		t.Fatal(err)
	}
	closed := cancelHTTP(t, ts, m.ID)
	if closed.State != StateCanceled {
		t.Fatalf("cancel during a delta: %+v", closed)
	}
	if err := s.commitDelta(ws, sess, &JobResult{HPWL: res.HPWL}); !errors.Is(err, errSessionEnded) {
		t.Fatalf("delta's manifest edit after the cancel: %v, want %v", err, errSessionEnded)
	}
	untrack()
	ws.run.Unlock()

	got, err := s.spool.ReadManifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.Result == nil || got.Result.HPWL != m.Result.HPWL {
		t.Fatalf("manifest after the refused delta: %+v, want canceled with the base result", got)
	}
	if warmState(s, m.ID) != nil {
		t.Fatal("canceled session holds warm state")
	}
	if code, _ := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 1)); code != http.StatusConflict {
		t.Fatalf("delta on the canceled session status %d", code)
	}
}

// TestSessionParkRestart drains the daemon mid-conversation and proves the
// restarted daemon continues the delta chain from the spooled snapshot:
// the first delta after restart rehydrates and the counters carry on.
func TestSessionParkRestart(t *testing.T) {
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	s.Start()
	ts := httptest.NewServer(s.Handler())

	spec := quickSessionSpec()
	m := openSessionHTTP(t, ts, s, spec)
	code, dr := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 0))
	if code != http.StatusOK || dr.Deltas != 1 {
		t.Fatalf("first delta: status %d, %+v", code, dr)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pm, err := s.spool.ReadManifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pm.State != StateParked {
		t.Fatalf("drained session state %s, want parked", pm.State)
	}

	// A second daemon on the same spool inherits the parked session.
	s2 := newTestServer(t, Config{SpoolDir: spool})
	s2.Start()
	if s2.RecoveredSessions != 1 || s2.Recovered != 0 {
		t.Fatalf("recovered sessions %d, jobs %d; want 1 and 0", s2.RecoveredSessions, s2.Recovered)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, dr = postDelta(t, ts2, m.ID, sessionDelta(t, spec, 3, 1))
	if code != http.StatusOK {
		t.Fatalf("post-restart delta status %d", code)
	}
	if dr.Deltas != 2 || !dr.Rehydrated || dr.HPWL <= 0 {
		t.Fatalf("post-restart delta response %+v", dr)
	}
	fm, err := s2.spool.ReadManifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fm.State != StateOpen || snapshotOf(t, s2, m.ID).Deltas != 2 {
		t.Fatalf("post-restart manifest %+v", fm)
	}
}

// TestSessionIdleEviction proves the janitor drops idle warm state — the
// session parks — and the next delta transparently rehydrates from the
// snapshot.
func TestSessionIdleEviction(t *testing.T) {
	s := newTestServer(t, Config{SessionIdle: 50 * time.Millisecond})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSessionSpec()
	m := openSessionHTTP(t, ts, s, spec)

	// The janitor counts an eviction after it releases the session's run
	// lock; the warm state reads nil earlier, while the lock is still held
	// and a delta would get 409.
	waitCount(t, s, "serve.sessions_evicted", 1)
	if warmState(s, m.ID) != nil {
		t.Fatal("evicted session still holds its warm state")
	}
	if pm, _ := s.spool.ReadManifest(m.ID); pm.State != StateParked {
		t.Fatalf("evicted session is %s, want parked", pm.State)
	}

	code, dr := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 0))
	if code != http.StatusOK {
		t.Fatalf("post-eviction delta status %d", code)
	}
	if !dr.Rehydrated || dr.Deltas != 1 {
		t.Fatalf("post-eviction delta response %+v", dr)
	}
	if om, _ := s.spool.ReadManifest(m.ID); om.State != StateOpen {
		t.Fatalf("rehydrated session is %s, want open", om.State)
	}
}

// TestSessionOpenValidation exercises the spec validation surface of a
// session submission.
func TestSessionOpenValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, body := range []string{
		`{"kind":"session","profile":"MEDIA_SUBSYS","bookshelf":{"a.aux":"x"}}`, // both sources
		`{"kind":"session"}`,                             // no source
		`{"kind":"session","profile":"NO_SUCH_CHIP"}`,    // unknown profile
		`{"kind":"session","profile":"OR1200","junk":1}`, // unknown field
		`{"kind":"session","profile":"OR1200","scale":-1}`,
		`{"kind":"session","profile":"OR1200","strategy":{"Theta":"x"}}`, // strategy does not decode
		`{"kind":"session","profile":"OR1200","warm_max_iters":5}`,       // retired warm re-place caps
		`{"kind":"session","profile":"OR1200","warm_min_iters":5}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// Deltas against a nonexistent session 404.
	resp, err := http.Post(ts.URL+"/api/v1/jobs/abcdef012345/deltas", "application/json",
		bytes.NewReader([]byte(`{"moves":[{"cell":0,"x":1,"y":1}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta on unknown session status %d", resp.StatusCode)
	}
}
