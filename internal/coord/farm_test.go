package coord

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"puffer/internal/serve"
	"puffer/internal/xfarm"
)

// exploreSpec is a distributed exploration small enough for a test fleet:
// budget 1 means Algorithm 3 runs exactly 1 + 2 rounds × 5 groups × 1 = 11
// trials, each a capped place+route of the small MEDIA_SUBSYS instance.
func exploreSpec() serve.JobSpec {
	s := serve.JobSpec{
		Kind:        serve.KindExplore,
		Profile:     "MEDIA_SUBSYS",
		Scale:       3000,
		Seed:        7,
		Budget:      1,
		MaxIters:    30,
		Distributed: true,
	}
	s.Normalize()
	return s
}

const exploreTrials = 11 // budget + rounds×groups×budget = 1 + 2×5×1

// countTrials tallies the coordinator-spooled trial jobs of one exploration.
func countTrials(t *testing.T, s *Server, parent string) (placed, cached int) {
	t.Helper()
	all, err := s.Spool().List()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range all {
		if m.Parent != parent {
			continue
		}
		if m.CacheHit {
			cached++
		} else {
			placed++
		}
	}
	return placed, cached
}

// TestDistributedExploration runs a full exploration farm over two live
// workers: every trial dispatches as its own place job, the tuned strategy
// and the explore-state checkpoint come back as artifacts, and a repeat
// submission answers from the result cache without re-running anything.
func TestDistributedExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("farm integration test")
	}
	w1 := newFleetWorker(t, "w1")
	w2 := newFleetWorker(t, "w2")
	cs, ch := newCoordinator(t, Config{})
	w1.register(t, ch.URL)
	w2.register(t, ch.URL)

	m := submit(t, ch.URL, exploreSpec(), nil)
	if m.State != serve.StateQueued && m.State != serve.StateRunning {
		t.Fatalf("exploration admitted in state %s", m.State)
	}
	done := waitCoordState(t, ch.URL, m.ID, serve.StateDone)
	if done.Result == nil || done.Result.Trials != exploreTrials {
		t.Fatalf("result = %+v, want %d trials", done.Result, exploreTrials)
	}
	if done.Result.BestScore >= xfarm.Infeasible {
		t.Fatalf("best score %g: every trial failed", done.Result.BestScore)
	}

	placed, cached := countTrials(t, cs, m.ID)
	if placed+cached != exploreTrials {
		t.Fatalf("spool holds %d trial jobs (placed %d, cached %d), want %d",
			placed+cached, placed, cached, exploreTrials)
	}

	// The checkpoint artifact must be a valid explore-state manifest with
	// every trial done.
	resp, err := http.Get(ch.URL + "/api/v1/jobs/" + m.ID + "/artifacts/" + ExploreStateArtifact)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore-state artifact answered %d", resp.StatusCode)
	}
	st, err := xfarm.ParseState(data)
	if err != nil {
		t.Fatalf("explore-state artifact: %v", err)
	}
	if len(st.Trials) != exploreTrials || st.Attempts != 1 {
		t.Fatalf("state has %d trials, %d attempts; want %d trials, 1 attempt",
			len(st.Trials), st.Attempts, exploreTrials)
	}
	for _, tr := range st.Trials {
		if tr.State != xfarm.TrialDone {
			t.Fatalf("trial (round %d, group %q, index %d) ended %s", tr.Round, tr.Group, tr.Index, tr.State)
		}
	}

	// The tuned strategy artifact must decode as a strategy document.
	resp, err = http.Get(ch.URL + "/api/v1/jobs/" + m.ID + "/artifacts/strategy.json")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strategy artifact answered %d", resp.StatusCode)
	}
	var strat map[string]any
	if err := json.Unmarshal(data, &strat); err != nil {
		t.Fatalf("strategy artifact: %v", err)
	}

	// A deterministic distributed exploration is cacheable: the identical
	// submission answers done immediately, no new trials.
	m2 := submit(t, ch.URL, exploreSpec(), nil)
	if !m2.CacheHit || m2.State != serve.StateDone || m2.Origin != m.ID {
		t.Fatalf("repeat exploration: cache_hit=%v state=%s origin=%s, want hit from %s",
			m2.CacheHit, m2.State, m2.Origin, m.ID)
	}
}

// TestDistributedExplorationResume interrupts a farm mid-run (coordinator
// drain — the graceful twin of SIGKILL, same spool-resume path) and
// restarts it on the same spool: the controller must resume from the
// explore-state checkpoint, replay finished trials through the result
// cache, and run every placement exactly once across both attempts.
func TestDistributedExplorationResume(t *testing.T) {
	if testing.Short() {
		t.Skip("farm integration test")
	}
	w1 := newFleetWorker(t, "w1")
	w2 := newFleetWorker(t, "w2")
	spoolDir := t.TempDir()
	cs1, ch1 := newCoordinator(t, Config{Config: serve.Config{SpoolDir: spoolDir}})
	w1.register(t, ch1.URL)
	w2.register(t, ch1.URL)

	spec := exploreSpec()
	spec.Seed = 11 // distinct schedule from the happy-path test
	m := submit(t, ch1.URL, spec, nil)

	// Wait until some trials have finished, then take the coordinator down
	// mid-exploration.
	deadline := time.Now().Add(90 * time.Second)
	for {
		placed, _ := countTrials(t, cs1, m.ID)
		doneTrials := 0
		all, _ := cs1.Spool().List()
		for _, tm := range all {
			if tm.Parent == m.ID && tm.State == serve.StateDone {
				doneTrials++
			}
		}
		if doneTrials >= 2 && placed < exploreTrials {
			break
		}
		if placed+doneTrials >= exploreTrials || time.Now().After(deadline) {
			t.Skip("exploration finished before it could be interrupted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ch1.Close()
	if err := cs1.Close(); err != nil {
		t.Fatal(err)
	}
	mm, err := cs1.Spool().ReadManifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mm.State != serve.StateRunning {
		t.Fatalf("parked exploration is %s, want running (resumable)", mm.State)
	}

	// Restart on the same spool: recovery must restart the controller.
	cs2, ch2 := newCoordinator(t, Config{Config: serve.Config{SpoolDir: spoolDir}})
	if cs2.Recovered == 0 {
		t.Fatal("recovery found nothing to resume")
	}
	w1.register(t, ch2.URL)
	w2.register(t, ch2.URL)

	done := waitCoordState(t, ch2.URL, m.ID, serve.StateDone)
	if done.Result == nil || done.Result.Trials != exploreTrials {
		t.Fatalf("resumed result = %+v, want %d trials", done.Result, exploreTrials)
	}

	path, err := cs2.Spool().ArtifactPath(m.ID, ExploreStateArtifact)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := xfarm.ParseState(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 2 {
		t.Fatalf("state records %d attempts, want 2", st.Attempts)
	}

	// Every placement ran exactly once: trials finished before the restart
	// came back as result-cache hits, so non-cache-hit trial jobs across
	// both attempts must equal the schedule size exactly.
	placed, cached := countTrials(t, cs2, m.ID)
	if placed != exploreTrials {
		t.Fatalf("%d placements ran (plus %d cache hits), want exactly %d", placed, cached, exploreTrials)
	}
	if cached == 0 {
		t.Fatal("resume replayed no trials through the result cache")
	}
}
