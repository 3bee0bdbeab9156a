package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// quickSessionSpec opens a session over the same small-but-complete design
// quickSpec uses for jobs.
func quickSessionSpec() SessionSpec {
	s := SessionSpec{Profile: "MEDIA_SUBSYS", Scale: 3000, Seed: 5}
	s.Normalize()
	return s
}

// sessionDelta builds a delta document moving n movable cells of the
// spec's design to scattered absolute positions inside the region.
func sessionDelta(t *testing.T, spec SessionSpec, n int, slot int) []byte {
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

// openSessionHTTP posts spec and waits until the session reaches open.
func openSessionHTTP(t *testing.T, ts *httptest.Server, s *Server, spec SessionSpec) *SessionManifest {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("open status %d", resp.StatusCode)
	}
	var m SessionManifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ID == "" || m.State != SessionOpening {
		t.Fatalf("open returned %+v", m)
	}
	return waitSessionState(t, s, m.ID, SessionOpen)
}

// waitSessionState polls the durable session manifest until it reaches want.
func waitSessionState(t *testing.T, s *Server, id string, want SessionState) *SessionManifest {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		m, err := s.spool.sessions.read(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.State == want {
			return m
		}
		if m.State.Terminal() {
			t.Fatalf("session %s reached %s (error %q) while waiting for %s", id, m.State, m.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s waiting for %s", id, m.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// postDelta applies a delta document, returning the HTTP status and the
// decoded success body (zero-valued on non-200).
func postDelta(t *testing.T, ts *httptest.Server, id string, delta []byte) (int, deltaResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/deltas", "application/json", bytes.NewReader(delta))
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

func TestSessionLifecycleHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSessionSpec()
	m := openSessionHTTP(t, ts, s, spec)
	if m.LastHPWL <= 0 || m.DesignHash == "" {
		t.Fatalf("open session manifest %+v", m)
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

	// The list endpoint shows the session warm with one delta applied.
	resp, err := http.Get(ts.URL + "/api/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var rows []sessionSummary
	json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	found := false
	for _, row := range rows {
		if row.ID == m.ID {
			found = true
			if row.Deltas != 1 || !row.Warm || row.State != SessionOpen {
				t.Fatalf("session row %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("session %s missing from list %+v", m.ID, rows)
	}

	// Close, then verify no further deltas are accepted.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+m.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	if code, _ := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 1)); code != http.StatusConflict {
		t.Fatalf("delta on closed session status %d", code)
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
	pm, err := s.spool.sessions.read(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pm.State != SessionParked {
		t.Fatalf("drained session state %s, want parked", pm.State)
	}

	// A second daemon on the same spool inherits the parked session.
	s2 := newTestServer(t, Config{SpoolDir: spool})
	s2.Start()
	if s2.RecoveredSessions != 1 {
		t.Fatalf("recovered sessions %d, want 1", s2.RecoveredSessions)
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
	fm, err := s2.spool.sessions.read(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fm.State != SessionOpen || fm.Deltas != 2 {
		t.Fatalf("post-restart manifest %+v", fm)
	}
}

// TestSessionIdleEviction proves the janitor drops idle warm state and the
// next delta transparently rehydrates from the snapshot.
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
	if rt, ok := lookup(s, s.sessions, m.ID); !ok || rt.warm() != nil {
		t.Fatal("evicted session still holds its warm state")
	}

	code, dr := postDelta(t, ts, m.ID, sessionDelta(t, spec, 3, 0))
	if code != http.StatusOK {
		t.Fatalf("post-eviction delta status %d", code)
	}
	if !dr.Rehydrated || dr.Deltas != 1 {
		t.Fatalf("post-eviction delta response %+v", dr)
	}
}

// TestSessionOpenValidation exercises the spec validation surface.
func TestSessionOpenValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, body := range []string{
		`{"profile":"MEDIA_SUBSYS","bookshelf":{"a.aux":"x"}}`, // both sources
		`{}`,                            // no source
		`{"profile":"NO_SUCH_CHIP"}`,    // unknown profile
		`{"profile":"OR1200","junk":1}`, // unknown field
		`{"profile":"OR1200","scale":-1}`,
		`{"profile":"OR1200","strategy":{"Theta":"x"}}`, // strategy does not decode
	} {
		resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// Deltas against a nonexistent session 404.
	resp, err := http.Post(ts.URL+"/api/v1/sessions/abcdef012345/deltas", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"moves":[{"cell":0,"x":1,"y":1}]}`))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta on unknown session status %d", resp.StatusCode)
	}
}
