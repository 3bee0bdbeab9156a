package serve

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"puffer/internal/eco"
	"puffer/internal/obs"
	"puffer/internal/synth"
)

// fakeRun is an in-memory stand-in for the local run: a job "runs" until
// the test finishes it or its context ends, so lifecycle tests control
// exactly when a job completes.
type fakeRun struct {
	mu     sync.Mutex
	finish map[string]chan Outcome
}

func (f *fakeRun) done(id string) chan Outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.finish[id]
	if !ok {
		ch = make(chan Outcome, 1)
		f.finish[id] = ch
	}
	return ch
}

func (f *fakeRun) run(ctx context.Context, j *Job) Outcome {
	j.Hub.Publish(Event{Type: "stage", Stage: "gp", StageStatus: "done"})
	select {
	case out := <-f.done(j.M.ID):
		return out
	case <-ctx.Done():
		if errors.Is(context.Cause(ctx), ErrCanceled) {
			return Outcome{State: StateCanceled, Error: ErrCanceled.Error()}
		}
		return Outcome{State: StateParked}
	}
}

// contractRun is one run under the core's state-machine contract.
type contractRun struct {
	name string
	// install swaps the run into a not-yet-started server.
	install func(s *Server)
	// spec is a job that runs until finished or canceled; finish lets it
	// complete (a no-op for the local run, whose jobs finish alone).
	spec   func() JobSpec
	finish func(id string)
}

func contractRuns() []contractRun {
	// One fake serves every server it is installed in: job IDs are unique.
	f := &fakeRun{finish: map[string]chan Outcome{}}
	return []contractRun{
		{name: "local", install: func(*Server) {}, spec: slowSpec, finish: func(string) {}},
		{
			name: "fake", install: func(s *Server) { s.run = f.run }, spec: quickSpec,
			finish: func(id string) { f.done(id) <- Outcome{State: StateDone, Result: &JobResult{HPWL: 42}} },
		},
	}
}

func boot(t *testing.T, b contractRun, dir string) *Server {
	t.Helper()
	s := newTestServer(t, Config{SpoolDir: dir, QueueCap: 4})
	b.install(s)
	return s
}

func submitVia(t *testing.T, s *Server, spec JobSpec) string {
	t.Helper()
	m, err := s.Submit(spec, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	return m.ID
}

func isState(st JobState) func(Event) bool {
	return func(e Event) bool { return e.Type == "state" && e.State == st }
}

// TestBackendContract runs one scenario list against the local run and an
// in-memory fake, so the core's state machine — claim, cancel, drain,
// recovery — is tested apart from how long a placement takes.
func TestBackendContract(t *testing.T) {
	for _, b := range contractRuns() {
		t.Run(b.name+"/submit to done", func(t *testing.T) {
			s := boot(t, b, t.TempDir())
			s.Start()
			id := submitVia(t, s, quickSpec())
			waitEvent(t, s, id, isState(StateRunning))
			b.finish(id)
			// The terminal event is only published once the terminal
			// manifest is durable: whoever acts on it finds the result.
			waitEvent(t, s, id, isState(StateDone))
			m, err := s.spool.ReadManifest(id)
			if err != nil || m.State != StateDone || m.Result == nil || m.Result.HPWL <= 0 ||
				m.Attempts != 1 || m.FinishedAt == nil {
				t.Fatalf("manifest at the done event: %+v, %v", m, err)
			}
		})

		t.Run(b.name+"/cancel queued", func(t *testing.T) {
			s := boot(t, b, t.TempDir()) // never started: the job stays queued
			id := submitVia(t, s, quickSpec())
			m, err := s.Cancel(id, "not needed")
			if err != nil || m == nil || m.State != StateCanceled || m.Error != "not needed" {
				t.Fatalf("Cancel = %+v, %v", m, err)
			}
			s.Start()
			other := submitVia(t, s, quickSpec())
			b.finish(other)
			waitState(t, s, other, StateDone)
			if m, _ := s.spool.ReadManifest(id); m.State != StateCanceled || m.Attempts != 0 {
				t.Fatalf("canceled job was claimed anyway: %+v", m)
			}
		})

		t.Run(b.name+"/cancel running", func(t *testing.T) {
			s := boot(t, b, t.TempDir())
			s.Start()
			id := submitVia(t, s, b.spec())
			waitEvent(t, s, id, func(e Event) bool { return e.Type == "stage" || e.Type == "sample" })
			if m, err := s.Cancel(id, ""); err != nil || m != nil {
				t.Fatalf("Cancel of a running job = %+v, %v; want nil, nil (asynchronous)", m, err)
			}
			m := waitState(t, s, id, StateCanceled)
			if m.Error != ErrCanceled.Error() {
				t.Fatalf("cancel message %q", m.Error)
			}
		})

		t.Run(b.name+"/drain then recover", func(t *testing.T) {
			dir := t.TempDir()
			s := boot(t, b, dir)
			s.Start()
			running := submitVia(t, s, b.spec())
			waitEvent(t, s, running, func(e Event) bool { return e.Type == "stage" || e.Type == "sample" })
			queued := submitVia(t, s, quickSpec()) // one slot: waits behind it
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(quickSpec(), Origin{}); err == nil {
				t.Fatal("draining server admitted a job")
			}
			if m, _ := s.spool.ReadManifest(running); m.State != StateParked {
				t.Fatalf("running job left %s by drain, want %s", m.State, StateParked)
			}
			if m, _ := s.spool.ReadManifest(queued); m.State != StateQueued || m.Attempts != 0 {
				t.Fatalf("queued job after drain: %+v", m)
			}

			s2 := boot(t, b, dir)
			if s2.Recovered != 2 {
				t.Fatalf("recovered %d jobs, want 2", s2.Recovered)
			}
			s2.Start()
			for _, id := range []string{running, queued} {
				waitEvent(t, s2, id, isState(StateRunning))
				b.finish(id)
				waitState(t, s2, id, StateDone)
			}
			if m, _ := s2.spool.ReadManifest(running); m.Attempts != 2 {
				t.Fatalf("resumed job counts %d attempts, want 2", m.Attempts)
			}
		})
	}
}

// TestRecoverParentSpools: spools as earlier daemons left them recover. A
// standalone daemon's queued, crashed-running and parked jobs are
// re-admitted and finish. A coordinator's spool boots too: its done cache
// hit is left alone, and its upload — whose files lived in the
// coordinator's content-addressed store, not under the job's design/ —
// fails with an error naming the missing design instead of hanging.
// Session jobs recover by their snapshot: one that crashed in its base
// placement is placed again and opens, one that crashed open boots parked
// and its next delta rehydrates. Sessions of the retired sessions/ layout
// are left untouched, with one warning naming their count.
func TestRecoverParentSpools(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now().UTC().Add(-time.Hour)
	mk := func(id string, st JobState, edit func(*Manifest)) {
		at = at.Add(time.Second)
		m := &Manifest{ID: id, Spec: quickSpec(), State: st, Attempts: 1, SubmittedAt: at}
		if st == StateQueued {
			m.Attempts = 0
		} else {
			m.StartedAt = &at
		}
		if edit != nil {
			edit(m)
		}
		if err := sp.CreateJob(m); err != nil {
			t.Fatal(err)
		}
	}
	mk("standalone-q", StateQueued, nil)
	mk("standalone-r", StateRunning, nil)
	mk("standalone-p", StateParked, func(m *Manifest) { m.StartedAt = nil; m.Stage = "gp" })
	sessionSpec := quickSessionSpec()
	mk("session-r", StateRunning, func(m *Manifest) { m.Spec = sessionSpec })
	mk("session-open", StateOpen, func(m *Manifest) { m.Spec = sessionSpec })
	cfg, err := flowConfig(sessionSpec.Seed, 0, 0, nil, nil, NewHub())
	if err != nil {
		t.Fatal(err)
	}
	p, err := synth.ProfileByName(sessionSpec.Profile)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eco.New(synth.Generate(p, sessionSpec.Scale, sessionSpec.Seed), cfg, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	sn, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Save(sp.SnapshotPath("session-open")); err != nil {
		t.Fatal(err)
	}
	// A session as daemons wrote them before sessions were jobs.
	parent := filepath.Join(dir, "sessions", "0ld5e5510n00")
	parentDoc := []byte(`{"format":"puffer/session/v1","id":"0ld5e5510n00","spec":{"profile":"OR1200","scale":800,"seed":1},
		"state":"open","deltas":1,"last_hpwl":3100,"opened_at":"2026-01-01T00:00:00Z"}`)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, "manifest.json"), parentDoc, 0o644); err != nil {
		t.Fatal(err)
	}
	// Manifests as a coordinator wrote them, fields this daemon no longer
	// has included.
	coord := map[string]string{
		"coord-upload": `{"format":"puffer/job/v1","id":"coord-upload","spec":{"kind":"place","scale":800,"seed":5},
			"state":"running","attempts":1,"tenant":"alice","node":"w1","node_addr":"http://127.0.0.1:9","remote_id":"r1",
			"design_digest":"sha256-cc2f9b314a8d545d1c189e0775fd070a0a1b410d509776024de246636495d1e9",
			"submitted_at":"2026-01-01T00:00:00Z","started_at":"2026-01-01T00:00:01Z"}`,
		"coord-cached": `{"format":"puffer/job/v1","id":"coord-cached","spec":{"kind":"place","profile":"MEDIA_SUBSYS","scale":3000,"seed":5},
			"state":"done","attempts":0,"cache_hit":true,"origin":"coord-origin",
			"submitted_at":"2026-01-01T00:00:02Z","finished_at":"2026-01-01T00:00:02Z"}`,
	}
	for id, doc := range coord {
		if err := os.MkdirAll(sp.JobDir(id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sp.JobDir(id), "manifest.json"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logs syncBuffer
	s := newTestServer(t, Config{SpoolDir: dir, Log: obs.NewLogger(&logs, slog.LevelInfo)})
	if s.Recovered != 5 || s.RecoveredSessions != 1 {
		t.Fatalf("recovered %d jobs and %d sessions, want 5 and 1", s.Recovered, s.RecoveredSessions)
	}
	if m, _ := sp.ReadManifest("session-open"); m.State != StateParked {
		t.Fatalf("open session with a snapshot booted %s, want parked", m.State)
	}
	if n := strings.Count(logs.String(), "retired sessions/ layout"); n != 1 || !strings.Contains(logs.String(), "count=1") {
		t.Errorf("boot logged %d warnings about the retired sessions/ layout, want one with count=1:\n%s", n, logs.String())
	}
	if got, err := os.ReadFile(filepath.Join(parent, "manifest.json")); err != nil || !bytes.Equal(got, parentDoc) {
		t.Errorf("parent session manifest touched at boot: %v", err)
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 1 {
		t.Errorf("parent session dir holds %d entries after boot, want its one manifest", len(entries))
	}
	s.Start()
	for id, attempts := range map[string]int{"standalone-q": 1, "standalone-r": 2, "standalone-p": 2} {
		if m := waitState(t, s, id, StateDone); m.Attempts != attempts || m.Result == nil || m.Result.HPWL <= 0 {
			t.Errorf("%s: attempts %d, result %+v; want %d attempts and a result", id, m.Attempts, m.Result, attempts)
		}
	}
	if m := waitState(t, s, "coord-upload", StateFailed); !strings.Contains(m.Error, "no uploaded .aux") {
		t.Errorf("coordinator upload failed with %q, want the missing design named", m.Error)
	}
	if m, err := sp.ReadManifest("coord-cached"); err != nil || m.State != StateDone || m.Attempts != 0 {
		t.Errorf("coordinator cache hit after boot: %+v, %v", m, err)
	}
	if m := waitState(t, s, "session-r", StateOpen); m.Attempts != 2 || m.Result == nil || m.Result.HPWL != sn.LastHPWL {
		t.Errorf("re-admitted session: attempts %d, result %+v; want 2 attempts and HPWL %v", m.Attempts, m.Result, sn.LastHPWL)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, dr := postDelta(t, ts, "session-open", sessionDelta(t, sessionSpec, 3, 0))
	if code != http.StatusOK || !dr.Rehydrated || dr.Deltas != 1 {
		t.Fatalf("delta on the parked session: status %d, %+v", code, dr)
	}
	if m, _ := sp.ReadManifest("session-open"); m.State != StateOpen {
		t.Errorf("rehydrated session is %s, want open", m.State)
	}
}
