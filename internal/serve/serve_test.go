package serve

import (
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
	sp, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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
	// Recovery preserves submission order, so the oldest interrupted job
	// runs first after a restart.
	if recovered[0].ID != "aaaaaaaaaaa1" || recovered[2].ID != "aaaaaaaaaaa3" {
		t.Fatalf("recovery order %s,%s,%s", recovered[0].ID, recovered[1].ID, recovered[2].ID)
	}
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

func TestSpoolManifestFormatEnforced(t *testing.T) {
	sp, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{ID: "abcdefabcdef", Spec: JobSpec{Profile: "OR1200"},
		State: StateQueued, SubmittedAt: time.Now().UTC()}
	if err := sp.CreateJob(m); err != nil {
		t.Fatal(err)
	}
	got, err := sp.ReadManifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != ManifestFormat {
		t.Fatalf("stored format %q, want %q", got.Format, ManifestFormat)
	}
	// A manifest carrying a foreign format string must not be trusted.
	got.Format = "someone/else/v9"
	data := []byte(`{"format":"someone/else/v9","id":"abcdefabcdef","state":"queued"}`)
	if err := atomicWriteFile(sp.JobDir(m.ID)+"/manifest.json", data); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.ReadManifest(m.ID); err == nil {
		t.Fatal("foreign-format manifest accepted")
	}
}
