package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(2, 0, 0)
	if err := q.TryPush(DefaultTenant, "a"); err != nil {
		t.Fatal(err)
	}
	if err := q.TryPush(DefaultTenant, "b"); err != nil {
		t.Fatal(err)
	}
	if err := q.TryPush(DefaultTenant, "c"); err != ErrQueueFull {
		t.Fatalf("third push: got %v, want ErrQueueFull", err)
	}
	// Recovery re-admission is exempt from the cap.
	if err := q.push(DefaultTenant, "c", true); err != nil {
		t.Fatalf("forced push beyond cap: %v", err)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, want := range []string{"a", "b", "c"} {
		id, ok := q.Pop()
		if !ok || id != want {
			t.Fatalf("Pop = %q/%v, want %q (FIFO)", id, ok, want)
		}
	}
}

func TestQueueCloseDrainsAndUnblocks(t *testing.T) {
	q := NewQueue(4, 0, 0)
	q.TryPush(DefaultTenant, "a")
	popped := make(chan string, 2)
	go func() {
		for {
			id, ok := q.Pop()
			if !ok {
				close(popped)
				return
			}
			popped <- id
		}
	}()
	q.Close()
	if err := q.TryPush(DefaultTenant, "b"); err != ErrQueueClosed {
		t.Fatalf("push after close: got %v, want ErrQueueClosed", err)
	}
	var got []string
	for id := range popped {
		got = append(got, id)
	}
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("drained %v, want [a]", got)
	}
}

func TestQueueRetryAfter(t *testing.T) {
	q := NewQueue(4, 0, 0)
	// No completed jobs yet: the 1s floor applies.
	if ra := q.RetryAfter(2); ra != time.Second {
		t.Fatalf("cold RetryAfter = %s, want 1s", ra)
	}
	q.TryPush(DefaultTenant, "a")
	q.TryPush(DefaultTenant, "b")
	q.ObserveJobDuration(10 * time.Second)
	// EWMA 10s, 2 queued + the rejected one, 1 worker: 30s.
	if ra := q.RetryAfter(1); ra != 30*time.Second {
		t.Fatalf("RetryAfter = %s, want 30s", ra)
	}
	// More workers shrink the hint.
	if ra := q.RetryAfter(3); ra != 10*time.Second {
		t.Fatalf("RetryAfter(3 workers) = %s, want 10s", ra)
	}
	// The hint clamps at 10 minutes no matter the backlog.
	q.ObserveJobDuration(100 * time.Hour)
	if ra := q.RetryAfter(1); ra != 600*time.Second {
		t.Fatalf("clamped RetryAfter = %s, want 600s", ra)
	}
}

func TestHubReplayAndLive(t *testing.T) {
	h := NewHub()
	h.Publish(Event{Type: "state", State: StateRunning})
	h.Publish(Event{Type: "log", Line: "hello"})

	replay, live, cancel := h.Subscribe()
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 1 || replay[1].Seq != 2 {
		t.Fatalf("replay = %+v, want 2 events with seq 1,2", replay)
	}
	h.Publish(Event{Type: "sample", Series: "place.hpwl", Value: 42})
	select {
	case e := <-live:
		if e.Seq != 3 || e.Series != "place.hpwl" {
			t.Fatalf("live event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("live event not delivered")
	}
	h.Close()
	if _, open := <-live; open {
		t.Fatal("live channel still open after Close")
	}
	// Late subscriber of a closed hub: replay carries the tail, channel
	// comes back closed.
	replay2, live2, cancel2 := h.Subscribe()
	defer cancel2()
	if len(replay2) != 3 {
		t.Fatalf("post-close replay has %d events, want 3", len(replay2))
	}
	if _, open := <-live2; open {
		t.Fatal("post-close subscription channel open")
	}
	h.Publish(Event{Type: "log", Line: "ignored"}) // must not panic or grow
	if r, _, c := h.Subscribe(); len(r) != 3 {
		t.Fatalf("publish after close retained: %d events", len(r))
	} else {
		c()
	}
}

func TestHubRingBoundsReplay(t *testing.T) {
	h := NewHub()
	total := hubRing + 50
	for i := 0; i < total; i++ {
		h.Publish(Event{Type: "sample", Step: i})
	}
	replay, _, cancel := h.Subscribe()
	defer cancel()
	if len(replay) != hubRing {
		t.Fatalf("replay %d events, want ring cap %d", len(replay), hubRing)
	}
	// The retained tail is contiguous and ends at the last sequence number,
	// so a late subscriber can detect the truncated head via the first Seq.
	if replay[0].Seq != total-hubRing+1 || replay[len(replay)-1].Seq != total {
		t.Fatalf("replay spans seq %d..%d, want %d..%d",
			replay[0].Seq, replay[len(replay)-1].Seq, total-hubRing+1, total)
	}
}

func TestJobSpecValidate(t *testing.T) {
	valid := func() JobSpec {
		s := JobSpec{Profile: "MEDIA_SUBSYS"}
		s.Normalize()
		return s
	}
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantErr string
	}{
		{"profile ok", func(s *JobSpec) {}, ""},
		{"bad kind", func(s *JobSpec) { s.Kind = "mine" }, "unknown job kind"},
		{"no source", func(s *JobSpec) { s.Profile = "" }, "exactly one"},
		{"both sources", func(s *JobSpec) {
			s.Bookshelf = map[string]string{"d.aux": "", "d.nodes": ""}
		}, "exactly one"},
		{"no aux", func(s *JobSpec) {
			s.Profile = ""
			s.Bookshelf = map[string]string{"d.nodes": ""}
		}, "exactly one .aux"},
		{"path escape", func(s *JobSpec) {
			s.Profile = ""
			s.Bookshelf = map[string]string{"../evil.aux": ""}
		}, "bare file name"},
		{"negative", func(s *JobSpec) { s.Scale = -1 }, "negative"},
		{"strategy ok", func(s *JobSpec) { s.Strategy = json.RawMessage(`{"Tau": 0.3}`) }, ""},
		{"strategy typo", func(s *JobSpec) { s.Strategy = json.RawMessage(`{"tua": 0.3}`) }, "unknown field"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(&s)
		err := s.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestSpoolRecoverRequeuesInterrupted(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, *Spool)
	}{
		{"job", func(t *testing.T, sp *Spool) {
			now := time.Now().UTC()
			mk := func(id string, st JobState, started bool) {
				m := &Manifest{ID: id, Spec: JobSpec{Profile: "OR1200"}, State: st,
					SubmittedAt: now, Attempts: 1}
				if started {
					m.StartedAt = &now
				}
				if err := sp.CreateJob(m); err != nil {
					t.Fatal(err)
				}
				now = now.Add(time.Second) // keep List's submission order stable
			}
			mk("aaaaaaaaaaa1", StateQueued, false)
			mk("aaaaaaaaaaa2", StateRunning, true) // crashed mid-job
			mk("aaaaaaaaaaa3", StateParked, false) // gracefully drained
			mk("aaaaaaaaaaa4", StateDone, false)
			mk("aaaaaaaaaaa5", StateCanceled, false)

			recovered, parked, err := sp.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(recovered) != 3 || len(parked) != 0 {
				t.Fatalf("recovered %d jobs and parked %d, want 3 and 0", len(recovered), len(parked))
			}
			for _, m := range recovered {
				if m.State != StateQueued {
					t.Errorf("job %s recovered as %s, want queued", m.ID, m.State)
				}
				onDisk, err := sp.ReadManifest(m.ID)
				if err != nil {
					t.Fatal(err)
				}
				if onDisk.State != StateQueued || onDisk.StartedAt != nil {
					t.Errorf("job %s on disk: state=%s started=%v, want queued/nil",
						m.ID, onDisk.State, onDisk.StartedAt)
				}
			}
			// Recovery preserves submission order, so the oldest interrupted
			// job runs first after a restart.
			if recovered[0].ID != "aaaaaaaaaaa1" || recovered[2].ID != "aaaaaaaaaaa3" {
				t.Fatalf("recovery order %s,%s,%s", recovered[0].ID, recovered[1].ID, recovered[2].ID)
			}
		}},
		{"session", func(t *testing.T, sp *Spool) {
			// A session whose snapshot is spooled parks for its next delta;
			// one without is placed again like any job; a finished one is
			// left alone.
			now := time.Now().UTC().Add(-time.Hour)
			cases := []struct {
				state    JobState
				snapshot bool
				want     JobState
			}{
				{StateQueued, false, StateQueued},
				{StateRunning, false, StateQueued}, // crashed in its base placement
				{StateRunning, true, StateParked},  // crashed before the open edit
				{StateParked, false, StateQueued},  // drained in its base placement
				{StateParked, true, StateParked},
				{StateOpen, true, StateParked}, // crashed while open
				{StateCanceled, true, StateCanceled},
			}
			before := map[string][]byte{}
			for i, c := range cases {
				m := &Manifest{ID: fmt.Sprintf("bbbbbbbbbbb%d", i), Spec: JobSpec{Kind: KindSession, Profile: "OR1200"},
					State: c.state, SubmittedAt: now.Add(time.Duration(i) * time.Second)}
				if c.state != StateQueued {
					m.StartedAt, m.Attempts = &now, 1
				}
				if err := sp.CreateJob(m); err != nil {
					t.Fatal(err)
				}
				if c.snapshot {
					if err := os.WriteFile(sp.SnapshotPath(m.ID), []byte("{}"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				before[m.ID], _ = os.ReadFile(filepath.Join(sp.JobDir(m.ID), "manifest.json"))
			}

			requeue, parked, err := sp.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(requeue) != 3 || len(parked) != 3 {
				t.Fatalf("requeued %d and parked %d sessions, want 3 and 3", len(requeue), len(parked))
			}
			for i, c := range cases {
				id := fmt.Sprintf("bbbbbbbbbbb%d", i)
				m, err := sp.ReadManifest(id)
				if err != nil {
					t.Fatal(err)
				}
				if m.State != c.want || (c.want == StateQueued && m.StartedAt != nil) {
					t.Errorf("session %s (%s, snapshot %v) on disk: %s started %v, want %s",
						id, c.state, c.snapshot, m.State, m.StartedAt, c.want)
				}
				if c.state == c.want {
					if after, _ := os.ReadFile(filepath.Join(sp.JobDir(id), "manifest.json")); !bytes.Equal(after, before[id]) {
						t.Errorf("session %s rewritten by recovery though its state holds", id)
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, openTestSpool(t)) })
	}
}

func openTestSpool(t *testing.T) *Spool {
	t.Helper()
	sp, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpoolArtifactPathRejectsEscape(t *testing.T) {
	sp, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../manifest.json", "a/b", `a\b`, "..", "x..y"} {
		if _, err := sp.ArtifactPath("job1", bad); err == nil {
			t.Errorf("ArtifactPath(%q) accepted", bad)
		}
	}
	if _, err := sp.ArtifactPath("job1", "report.json"); err != nil {
		t.Errorf("ArtifactPath(report.json): %v", err)
	}
}

// TestSpoolManifestFormatEnforced runs the store contract over the jobs
// of each kind; a session manifest of the retired puffer/session/v1
// family does not read as a job.
func TestSpoolManifestFormatEnforced(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, *Spool)
	}{
		{"job", func(t *testing.T, sp *Spool) {
			checkStore(t, sp, func(id string, at time.Time) *Manifest {
				return &Manifest{ID: id, Spec: JobSpec{Profile: "OR1200"}, State: StateQueued, SubmittedAt: at}
			})
		}},
		{"session", func(t *testing.T, sp *Spool) {
			checkStore(t, sp, func(id string, at time.Time) *Manifest {
				return &Manifest{ID: id, Spec: JobSpec{Kind: KindSession, Profile: "OR1200"}, State: StateOpen, SubmittedAt: at}
			})
			id := "dddddddddddd"
			doc := `{"format":"puffer/session/v1","id":"dddddddddddd","spec":{"profile":"OR1200"},"state":"open","deltas":2}`
			if err := os.WriteFile(filepath.Join(sp.JobDir(id), "manifest.json"), []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := sp.ReadManifest(id); err == nil {
				t.Error("a puffer/session/v1 manifest read as a job")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, openTestSpool(t)) })
	}
}

// checkStore checks the job store: the stored format string, that a
// foreign-format, a truncated and a misplaced manifest do not read, and
// that List skips them and orders the rest oldest first, ID breaking ties.
func checkStore(t *testing.T, sp *Spool, mk func(id string, at time.Time) *Manifest) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	// Directory order (aaa, bbb, ccc) is not list order (bbb, aaa, ccc).
	for _, m := range []*Manifest{mk("cccccccccccc", at.Add(time.Second)), mk("bbbbbbbbbbbb", at), mk("aaaaaaaaaaaa", at.Add(time.Second))} {
		if err := sp.CreateJob(m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sp.ReadManifest("aaaaaaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != "puffer/job/v1" {
		t.Fatalf("stored format %q, want puffer/job/v1", got.Format)
	}
	good, err := os.ReadFile(filepath.Join(sp.JobDir("aaaaaaaaaaaa"), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for id, doc := range map[string][]byte{
		"dddddddddddd": []byte(`{"format":"someone/else/v9","id":"dddddddddddd","state":"queued"}`),
		"eeeeeeeeeeee": good[:len(good)/2],
		"ffffffffffff": good, // names aaaaaaaaaaaa
	} {
		if err := os.MkdirAll(sp.JobDir(id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sp.JobDir(id), "manifest.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.ReadManifest(id); err == nil {
			t.Errorf("manifest %s accepted:\n%s", id, doc)
		}
	}
	all, err := sp.List()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range all {
		ids = append(ids, m.ID)
	}
	if got, want := strings.Join(ids, " "), "bbbbbbbbbbbb aaaaaaaaaaaa cccccccccccc"; got != want {
		t.Fatalf("list order %s, want %s", got, want)
	}
}

// FuzzReadManifest: whatever a manifest file holds, reading it either
// fails or yields a manifest the store rewrites to a fixed point — read,
// write and read again give the same document.
func FuzzReadManifest(f *testing.F) {
	sp, err := OpenSpool(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	job := &Manifest{ID: "aaaaaaaaaaaa", Spec: quickSpec(), State: StateDone, Attempts: 2,
		SubmittedAt: at, StartedAt: &at, FinishedAt: &at, Result: &JobResult{HPWL: 1.5, Artifacts: []string{"trace.json"}}}
	sess := &Manifest{ID: "bbbbbbbbbbbb", Spec: quickSessionSpec(), State: StateOpen, Attempts: 1,
		SubmittedAt: at, StartedAt: &at, Result: &JobResult{HPWL: 2.5}}
	job.Spec.Bookshelf = map[string]string{"d.aux": "RowBasedPlacement : d.nodes"}
	for _, m := range []*Manifest{job, sess} {
		if err := sp.CreateJob(m); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(sp.JobDir(m.ID), "manifest.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"format":"someone/else/v9","id":"aaaaaaaaaaaa"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := OpenSpool(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb"} {
			rewriteFixedPoint(t, sp, id, data)
		}
	})
}

func rewriteFixedPoint(t *testing.T, sp *Spool, id string, data []byte) {
	path := filepath.Join(sp.JobDir(id), "manifest.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var docs [2][]byte
	for i := range docs {
		m, err := sp.ReadManifest(id)
		if err != nil {
			if i == 0 {
				return
			}
			t.Fatalf("rewritten manifest does not read: %v\n%s", err, docs[0])
		}
		if err := sp.write(m); err != nil {
			t.Fatalf("manifest read but does not write: %v", err)
		}
		if docs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("manifest changed on its second rewrite:\n%s\n---\n%s", docs[0], docs[1])
	}
}
