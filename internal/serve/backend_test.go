package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeBackend is an in-memory stand-in for a remote backend: a job "runs"
// until the test finishes it or its context ends. Like a fleet it records
// a RemoteID when it takes a job, detaches on drain, and re-attaches to a
// manifest that already names a remote job.
type fakeBackend struct {
	s     *Server
	slots chan struct{}

	mu       sync.Mutex
	started  map[string]int // Run calls that started the job fresh
	attached map[string]int // Run calls that re-attached
	finish   map[string]chan Outcome
}

func newFakeBackend(s *Server, slots int) *fakeBackend {
	return &fakeBackend{s: s, slots: make(chan struct{}, slots),
		started: map[string]int{}, attached: map[string]int{}, finish: map[string]chan Outcome{}}
}

func (b *fakeBackend) Acquire(ctx context.Context) (func(), error) {
	select {
	case b.slots <- struct{}{}:
		return func() { <-b.slots }, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (b *fakeBackend) Slots() int { return cap(b.slots) }

// counts reports how often id was started fresh and re-attached.
func (b *fakeBackend) counts(id string) (started, attached int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started[id], b.attached[id]
}

func (b *fakeBackend) done(id string) chan Outcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.finish[id]
	if !ok {
		ch = make(chan Outcome, 1)
		b.finish[id] = ch
	}
	return ch
}

func (b *fakeBackend) Run(ctx context.Context, j *Job) Outcome {
	id := j.M.ID
	b.mu.Lock()
	if j.M.RemoteID != "" {
		b.attached[id]++
	} else {
		b.started[id]++
	}
	b.mu.Unlock()
	if j.M.RemoteID == "" {
		b.s.spool.Update(id, func(mm *Manifest) error {
			mm.Node, mm.NodeAddr, mm.RemoteID = "fake", "mem://fake", "r-"+id
			return nil
		})
	}
	j.Hub.Publish(Event{Type: "stage", Stage: "gp", StageStatus: "done"})
	select {
	case out := <-b.done(id):
		return out
	case <-ctx.Done():
		if errors.Is(context.Cause(ctx), ErrCanceled) {
			return Outcome{State: StateCanceled, Error: ErrCanceled.Error()}
		}
		return Outcome{State: StateRunning} // drain: carries on "remotely"
	}
}

// flaky hands every job back once ("retry elsewhere") before letting the
// wrapped backend run it.
type flaky struct {
	Backend
	mu   sync.Mutex
	seen map[string]bool
}

func (f *flaky) Run(ctx context.Context, j *Job) Outcome {
	f.mu.Lock()
	first := !f.seen[j.M.ID]
	f.seen[j.M.ID] = true
	f.mu.Unlock()
	if first {
		return Outcome{State: StateQueued, Error: "first worker refused"}
	}
	return f.Backend.Run(ctx, j)
}

// contractBackend is one backend under the core's state-machine contract.
type contractBackend struct {
	name string
	// install swaps the backend into a not-yet-started server.
	install func(s *Server)
	// spec is a job that runs until finished or canceled; finish lets it
	// complete (a no-op for the local backend, whose jobs finish alone).
	spec   func() JobSpec
	finish func(s *Server, id string)
	// afterDrain is the durable state a running job is left in by Drain;
	// attemptsAfterResume the Attempts once the next boot has finished it.
	afterDrain          JobState
	attemptsAfterResume int
}

func contractBackends() []contractBackend {
	return []contractBackend{
		{
			name: "local", install: func(*Server) {}, spec: slowSpec,
			finish:     func(*Server, string) {},
			afterDrain: StateParked, attemptsAfterResume: 2,
		},
		{
			name:    "fake",
			install: func(s *Server) { s.backend = newFakeBackend(s, 1) },
			spec:    quickSpec,
			finish: func(s *Server, id string) {
				res := &JobResult{HPWL: 42}
				s.backend.(*fakeBackend).done(id) <- Outcome{State: StateDone, Result: res}
			},
			afterDrain: StateRunning, attemptsAfterResume: 1, // re-attached, not re-run
		},
	}
}

func boot(t *testing.T, b contractBackend, dir string) *Server {
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

// TestBackendContract runs one scenario list against the local backend and
// an in-memory fake, so the core's state machine — claim, cancel, drain,
// recovery, retry — is tested once rather than once per tier.
func TestBackendContract(t *testing.T) {
	for _, b := range contractBackends() {
		t.Run(b.name+"/submit to done", func(t *testing.T) {
			s := boot(t, b, t.TempDir())
			s.Start()
			id := submitVia(t, s, quickSpec())
			waitEvent(t, s, id, isState(StateRunning))
			b.finish(s, id)
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
			b.finish(s, other)
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
			if m, _ := s.spool.ReadManifest(running); m.State != b.afterDrain {
				t.Fatalf("running job left %s by drain, want %s", m.State, b.afterDrain)
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
				b.finish(s2, id)
				waitState(t, s2, id, StateDone)
			}
			if m, _ := s2.spool.ReadManifest(running); m.Attempts != b.attemptsAfterResume {
				t.Fatalf("resumed job counts %d attempts, want %d", m.Attempts, b.attemptsAfterResume)
			}
			if fb, ok := s2.backend.(*fakeBackend); ok {
				if started, attached := fb.counts(running); started != 0 || attached != 1 {
					t.Fatalf("remote job re-dispatched at boot: started %d, attached %d", started, attached)
				}
			}
		})

		t.Run(b.name+"/retry elsewhere", func(t *testing.T) {
			s := boot(t, b, t.TempDir())
			s.backend = &flaky{Backend: s.backend, seen: map[string]bool{}}
			s.Start()
			first := submitVia(t, s, quickSpec())
			second := submitVia(t, s, quickSpec())
			// The handed-back job keeps its place at the head of the line.
			waitEvent(t, s, first, isState(StateQueued))
			waitEvent(t, s, first, func(e Event) bool { return e.Seq > 2 && e.Type == "state" && e.State == StateRunning })
			if m, _ := s.spool.ReadManifest(second); m.State == StateDone {
				t.Fatal("the job behind overtook the retried one")
			}
			for _, id := range []string{first, second} {
				waitEvent(t, s, id, func(e Event) bool { return e.Seq > 2 && e.Type == "state" && e.State == StateRunning })
				if fb, ok := s.backend.(*flaky).Backend.(*fakeBackend); ok {
					fb.done(id) <- Outcome{State: StateDone, Result: &JobResult{HPWL: 42}}
				}
				m := waitState(t, s, id, StateDone)
				if m.Attempts != 2 {
					t.Fatalf("retried job counts %d attempts, want 2", m.Attempts)
				}
			}
			// One stream across both attempts, Seq strictly increasing.
			replay, _, cancel, _ := s.Watch(first)
			cancel()
			for i, e := range replay {
				if e.Seq != i+1 {
					t.Fatalf("event %d has seq %d", i, e.Seq)
				}
			}
		})
	}
}

// TestRecoverParentSpools: spools as the parent commit's daemons left them
// — a standalone daemon's (queued, crashed-running, parked, done) and a
// coordinator's (queued in a tenant lane, running with node_addr and
// remote_id recorded, parked on a node, cache hit following its origin) —
// recover with the same outcomes: re-admit, re-attach, leave alone.
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
	onNode := func(m *Manifest) {
		m.Tenant, m.Node, m.NodeAddr, m.RemoteID = "alice", "w1", "http://127.0.0.1:9", "r1"
	}
	mk("standalone-q", StateQueued, nil)
	mk("standalone-r", StateRunning, nil)
	mk("standalone-p", StateParked, func(m *Manifest) { m.StartedAt = nil; m.Stage = "gp" })
	mk("coord-queued", StateQueued, func(m *Manifest) { m.Tenant = "bob"; m.DesignDigest = "profile-x" })
	mk("coord-onnode", StateRunning, onNode)
	mk("coord-parked", StateParked, onNode)
	mk("coord-origin", StateDone, func(m *Manifest) { m.Result = &JobResult{HPWL: 1234}; m.FinishedAt = &at })
	mk("coord-cached", StateDone, func(m *Manifest) { m.CacheHit, m.Origin, m.FinishedAt = true, "coord-origin", &at })

	s := newTestServer(t, Config{SpoolDir: dir})
	fb := newFakeBackend(s, 8)
	s.backend = fb
	if s.Recovered != 6 {
		t.Fatalf("recovered %d jobs, want 6", s.Recovered)
	}
	if s.queue.Len() != 4 {
		t.Fatalf("%d jobs re-admitted to the queue, want 4", s.queue.Len())
	}
	s.Start()
	for _, id := range []string{"standalone-q", "standalone-r", "standalone-p", "coord-queued", "coord-onnode", "coord-parked"} {
		waitEvent(t, s, id, isState(StateRunning))
		fb.done(id) <- Outcome{State: StateDone, Result: &JobResult{HPWL: 7}}
		waitState(t, s, id, StateDone)
	}
	want := map[string][3]int{ // attempts, fresh starts, re-attaches
		"standalone-q": {1, 1, 0}, "standalone-r": {2, 1, 0}, "standalone-p": {2, 1, 0},
		"coord-queued": {1, 1, 0}, "coord-onnode": {1, 0, 1}, "coord-parked": {1, 0, 1},
	}
	for id, w := range want {
		m, _ := sp.ReadManifest(id)
		started, attached := fb.counts(id)
		if got := [3]int{m.Attempts, started, attached}; got != w {
			t.Errorf("%s: attempts/started/attached = %v, want %v", id, got, w)
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/coord-cached/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if json.NewDecoder(resp.Body).Decode(&res); resp.StatusCode != http.StatusOK || res.HPWL != 1234 {
		t.Fatalf("cache hit's result = %d %+v, want its origin's", resp.StatusCode, res)
	}
}
