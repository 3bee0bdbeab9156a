package serve

import (
	"bytes"
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
	if err := q.ForcePush(DefaultTenant, "c"); err != nil {
		t.Fatalf("ForcePush beyond cap: %v", err)
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

			recovered, _, err := sp.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(recovered) != 3 {
				t.Fatalf("recovered %d jobs, want 3", len(recovered))
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
			now := time.Now().UTC().Add(-time.Hour)
			states := []SessionState{SessionOpening, SessionOpen, SessionParked, SessionFailed, SessionClosed}
			before := map[string][]byte{}
			for i, st := range states {
				m := &SessionManifest{ID: fmt.Sprintf("bbbbbbbbbbb%d", i), Spec: SessionSpec{Profile: "OR1200"},
					State: st, OpenedAt: now.Add(time.Duration(i) * time.Second)}
				if st == SessionFailed {
					m.Error = "engine failure"
				}
				if err := sp.sessions.create(m, nil); err != nil {
					t.Fatal(err)
				}
				before[m.ID], _ = os.ReadFile(filepath.Join(sp.sessions.dir(m.ID), "manifest.json"))
			}

			if s := newTestServer(t, Config{SpoolDir: sp.Root()}); s.RecoveredSessions != 2 {
				t.Fatalf("recovered %d sessions, want the open and the parked one", s.RecoveredSessions)
			}
			want := []struct {
				state SessionState
				err   string
			}{
				{SessionFailed, "daemon restarted before the base placement finished"},
				{SessionParked, ""}, {SessionParked, ""},
				{SessionFailed, "engine failure"}, {SessionClosed, ""},
			}
			for i, w := range want {
				id := fmt.Sprintf("bbbbbbbbbbb%d", i)
				m, err := sp.sessions.read(id)
				if err != nil {
					t.Fatal(err)
				}
				if m.State != w.state || m.Error != w.err {
					t.Errorf("session %s on disk: %s %q, want %s %q", id, m.State, m.Error, w.state, w.err)
				}
				if states[i].Terminal() {
					after, _ := os.ReadFile(filepath.Join(sp.sessions.dir(id), "manifest.json"))
					if !bytes.Equal(after, before[id]) {
						t.Errorf("terminal session %s rewritten by recovery", id)
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

// TestSpoolManifestFormatEnforced runs the store contract over both
// manifest families.
func TestSpoolManifestFormatEnforced(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, *Spool)
	}{
		{"job", func(t *testing.T, sp *Spool) {
			checkStore(t, &sp.jobs, ManifestFormat, func(id string, at time.Time) *Manifest {
				return &Manifest{ID: id, Spec: JobSpec{Profile: "OR1200"}, State: StateQueued, SubmittedAt: at}
			})
		}},
		{"session", func(t *testing.T, sp *Spool) {
			checkStore(t, &sp.sessions, SessionManifestFormat, func(id string, at time.Time) *SessionManifest {
				return &SessionManifest{ID: id, Spec: SessionSpec{Profile: "OR1200"}, State: SessionOpen, OpenedAt: at}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, openTestSpool(t)) })
	}
}

// checkStore checks one family's store: the stored format string, that a
// foreign-format, a truncated and a misplaced manifest do not read, and
// that list skips them and orders the rest oldest first, ID breaking ties.
func checkStore[T any, M interface {
	*T
	record
}](t *testing.T, st *store[T, M], format string, mk func(id string, at time.Time) M) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	// Directory order (aaa, bbb, ccc) is not list order (bbb, aaa, ccc).
	for _, m := range []M{mk("cccccccccccc", at.Add(time.Second)), mk("bbbbbbbbbbbb", at), mk("aaaaaaaaaaaa", at.Add(time.Second))} {
		if err := st.create(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.read("aaaaaaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	if f, _, _ := got.header(); *f != format {
		t.Fatalf("stored format %q, want %q", *f, format)
	}
	good, err := os.ReadFile(filepath.Join(st.dir("aaaaaaaaaaaa"), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for id, doc := range map[string][]byte{
		"dddddddddddd": []byte(`{"format":"someone/else/v9","id":"dddddddddddd","state":"queued"}`),
		"eeeeeeeeeeee": good[:len(good)/2],
		"ffffffffffff": good, // names aaaaaaaaaaaa
	} {
		if err := os.MkdirAll(st.dir(id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(st.dir(id), "manifest.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.read(id); err == nil {
			t.Errorf("manifest %s accepted:\n%s", id, doc)
		}
	}
	all, err := st.list()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range all {
		_, id, _ := m.header()
		ids = append(ids, id)
	}
	if got, want := strings.Join(ids, " "), "bbbbbbbbbbbb aaaaaaaaaaaa cccccccccccc"; got != want {
		t.Fatalf("list order %s, want %s", got, want)
	}
}

// FuzzReadManifest: whatever a manifest file holds, reading it either
// fails or yields a manifest the store rewrites to a fixed point — read,
// write and read again give the same document — for both families.
func FuzzReadManifest(f *testing.F) {
	sp, err := OpenSpool(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	job := &Manifest{ID: "aaaaaaaaaaaa", Spec: quickSpec(), State: StateDone, Attempts: 2,
		SubmittedAt: at, StartedAt: &at, FinishedAt: &at, Result: &JobResult{HPWL: 1.5, Artifacts: []string{"trace.json"}}}
	sess := &SessionManifest{ID: "aaaaaaaaaaaa", Spec: quickSessionSpec(), State: SessionOpen, Deltas: 3,
		LastHPWL: 2.5, OpenedAt: at, LastDeltaAt: &at}
	if err := sp.jobs.create(job, map[string]string{"d.aux": "RowBasedPlacement : d.nodes"}); err != nil {
		f.Fatal(err)
	}
	if err := sp.sessions.create(sess, nil); err != nil {
		f.Fatal(err)
	}
	for _, dir := range []string{sp.jobs.dir(job.ID), sp.sessions.dir(sess.ID)} {
		data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
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
		rewriteFixedPoint(t, &sp.jobs, data)
		rewriteFixedPoint(t, &sp.sessions, data)
	})
}

func rewriteFixedPoint[T any, M interface {
	*T
	record
}](t *testing.T, st *store[T, M], data []byte) {
	path := filepath.Join(st.dir("aaaaaaaaaaaa"), "manifest.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var docs [2][]byte
	for i := range docs {
		m, err := st.read("aaaaaaaaaaaa")
		if err != nil {
			if i == 0 {
				return
			}
			t.Fatalf("rewritten %s manifest does not read: %v\n%s", st.noun, err, docs[0])
		}
		if err := st.write(m); err != nil {
			t.Fatalf("%s manifest read but does not write: %v", st.noun, err)
		}
		if docs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("%s manifest changed on its second rewrite:\n%s\n---\n%s", st.noun, docs[0], docs[1])
	}
}
