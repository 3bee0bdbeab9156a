package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"puffer"
	"puffer/internal/netlist"
	"puffer/internal/router"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// quickSpec is a placement job small enough to finish in well under a
// second but large enough to exercise every stage.
func quickSpec() JobSpec {
	s := JobSpec{Kind: KindPlace, Profile: "MEDIA_SUBSYS", Scale: 3000, Seed: 5}
	s.Normalize()
	return s
}

// slowSpec is a placement job that runs for a few seconds — long enough
// for a test to cancel or drain it mid-flight without racing.
func slowSpec() JobSpec {
	s := JobSpec{Kind: KindPlace, Profile: "MEDIA_SUBSYS", Scale: 400, Seed: 5}
	s.Normalize()
	return s
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// enqueue spools and admits a job directly (bypassing HTTP), as the
// submit handler would.
func enqueue(t *testing.T, s *Server, spec JobSpec) string {
	t.Helper()
	m := &Manifest{ID: newJobID(), Spec: spec, State: StateQueued, SubmittedAt: time.Now().UTC()}
	if err := s.spool.CreateJob(m); err != nil {
		t.Fatal(err)
	}
	s.ensureJob(m.ID)
	if err := s.queue.TryPush(m.Tenant, m.ID); err != nil {
		t.Fatal(err)
	}
	return m.ID
}

// waitState polls the durable manifest until the job reaches want.
func waitState(t *testing.T, s *Server, id string, want JobState) *Manifest {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		m, err := s.spool.ReadManifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.State == want {
			return m
		}
		if m.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, m.State, m.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, m.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitCount polls a daemon counter until it reads want: runJob counts a
// job's outcome after it finalizes the manifest waitState polls.
func waitCount(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got := s.reg.Counter(name).Value()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// waitEvent consumes the job's hub until an event satisfies pred.
func waitEvent(t *testing.T, s *Server, id string, pred func(Event) bool) {
	t.Helper()
	a := s.ensureJob(id)
	replay, live, cancel := a.hub.Subscribe()
	defer cancel()
	for _, e := range replay {
		if pred(e) {
			return
		}
	}
	timeout := time.After(90 * time.Second)
	for {
		select {
		case e, ok := <-live:
			if !ok {
				t.Fatal("event stream ended before the awaited event")
			}
			if pred(e) {
				return
			}
		case <-timeout:
			t.Fatal("timed out waiting for event")
		}
	}
}

func TestServerRunsJobEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	id := enqueue(t, s, quickSpec())
	m := waitState(t, s, id, StateDone)

	if m.Result == nil || m.Result.HPWL <= 0 {
		t.Fatalf("done job has result %+v", m.Result)
	}
	if m.Attempts != 1 || m.FinishedAt == nil {
		t.Fatalf("manifest bookkeeping: attempts=%d finished=%v", m.Attempts, m.FinishedAt)
	}
	// Artifacts: the run report, the spooled checkpoint, the metric stream,
	// and the placed Bookshelf design must all be present and listed.
	for _, want := range []string{"report.json", "checkpoint.json", "metrics.jsonl", "placed.aux"} {
		found := false
		for _, a := range m.Result.Artifacts {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("artifact %s missing from %v", want, m.Result.Artifacts)
		}
	}
	// The final checkpoint names the last stage, and diag-style validation
	// accepts it.
	cp, err := pipeline.LoadCheckpoint(s.spool.CheckpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stage != "dp" {
		t.Fatalf("final checkpoint after stage %q, want dp", cp.Stage)
	}
}

// TestRepeatedDesignParsedPerJob: the daemon keeps no state per design.
// Two jobs of one profile, scale and seed each load the design, and the
// second places exactly as the first did.
func TestRepeatedDesignParsedPerJob(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSpec()
	spec.Route = true
	var results []*JobResult
	var placed [][]byte
	for range 2 {
		id := enqueue(t, s, spec)
		m := waitState(t, s, id, StateDone)
		m.Result.RuntimeMS = 0
		results = append(results, m.Result)
		pl, err := os.ReadFile(filepath.Join(s.spool.JobDir(id), "placed.pl"))
		if err != nil {
			t.Fatal(err)
		}
		placed = append(placed, pl)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("results differ:\n%+v\n%+v", results[0], results[1])
	}
	if !bytes.Equal(placed[0], placed[1]) {
		t.Error("placed.pl differs between the two jobs")
	}

	resp, err := http.Get(ts.URL + "/api/v1/ops")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ops struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ops); err != nil {
		t.Fatal(err)
	}
	if got := ops.Counters["serve.design_parses"]; got != 2 {
		t.Errorf("serve.design_parses = %d, want 2", got)
	}
	if got, ok := ops.Counters["serve.design_cache_hits"]; ok {
		t.Errorf("serve.design_cache_hits = %d, want no such counter", got)
	}
}

func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSpec()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var m Manifest
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.ID == "" || m.State != StateQueued {
		t.Fatalf("submit returned %+v", m)
	}

	// The SSE stream replays progress and terminates at the final state.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var finalState, lastStage string
	var sawSample bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		switch e.Type {
		case "state":
			finalState = string(e.State)
		case "stage":
			lastStage = e.Stage
		case "sample":
			sawSample = true
		}
	}
	resp.Body.Close()
	if finalState != "done" {
		t.Fatalf("stream ended with state %q, want done", finalState)
	}
	if lastStage != "dp" || !sawSample {
		t.Fatalf("stream missing progress: lastStage=%q sawSample=%v", lastStage, sawSample)
	}

	// Result, artifact download, list, health.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + m.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res JobResult
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.HPWL <= 0 {
		t.Fatalf("result: status %d, %+v", resp.StatusCode, res)
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + m.ID + "/artifacts/report.json")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.spool.JobDir(m.ID) + "/report.json")
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("artifact download mismatch: status %d, %d vs %d bytes",
			resp.StatusCode, got.Len(), len(data))
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + m.ID + "/artifacts/..%2fmanifest.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("artifact path escape served")
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	if len(rows) != 1 || rows[0]["id"] != m.ID || rows[0]["state"] != "done" {
		t.Fatalf("list rows %+v", rows)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "serving" {
		t.Fatalf("health %+v", health)
	}

	// The folded-in debug surface answers on the same port.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	if got := s.reg.Counter("serve.jobs_completed").Value(); got != 1 || !strings.Contains(prom.String(), "\nserve_jobs_completed 1\n") {
		t.Fatalf("serve.jobs_completed = %d; prometheus surface:\n%s", got, prom.String())
	}
}

func TestSubmitBackpressure429(t *testing.T) {
	// One-slot queue and a pool that is never started: a submission past
	// the first — a session as much as a job — must be rejected with 429
	// and a Retry-After hint, and must leave nothing behind in the spool.
	for _, spec := range []JobSpec{quickSpec(), quickSessionSpec()} {
		t.Run(spec.Kind, func(t *testing.T) {
			s := newTestServer(t, Config{QueueCap: 1})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			submit := func(spec JobSpec) *http.Response {
				body, _ := json.Marshal(spec)
				resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { resp.Body.Close() })
				return resp
			}
			if resp := submit(quickSpec()); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("first submit: %d", resp.StatusCode)
			}
			resp := submit(spec)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("second submit: %d, want 429", resp.StatusCode)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
			}
			if dirs, err := os.ReadDir(s.spool.jobs); err != nil || len(dirs) != 1 {
				t.Fatalf("spool holds %d job dirs after rejection, want 1 (%v)", len(dirs), err)
			}
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{`, // truncated JSON
		`{"profile":"NO_SUCH_PROFILE"}`,
		`{"kind":"mine","profile":"OR1200"}`,
		`{}`, // no design source
		`{"profile":"OR1200","unknown_field":1}`,
		`{"bookshelf":{"a.nodes":"x"}}`, // no .aux
		`{"profile":"OR1200","strategy":{"Theta":"x"}}`, // strategy does not decode
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{}) // pool never started: the job stays queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := enqueue(t, s, quickSpec())

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	m, err := s.spool.ReadManifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateCanceled || m.FinishedAt == nil {
		t.Fatalf("after cancel: %+v", m)
	}
	// No worker ever ran this job, so cancel itself must retire the hub —
	// otherwise repeated submit+cancel leaks runtime entries forever.
	s.mu.Lock()
	retired := len(s.finished) == 1 && s.finished[0] == id
	s.mu.Unlock()
	if !retired {
		t.Fatal("canceled queued job not enrolled in hub retention")
	}
	waitCount(t, s, "serve.jobs_canceled", 1)
	// Cancel is idempotent-ish: a second cancel reports the conflict.
	resp, err = http.Post(ts.URL+"/api/v1/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: %d, want 409", resp.StatusCode)
	}
	// And the result endpoint refuses until done.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: %d, want 409", resp.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := enqueue(t, s, slowSpec())
	// Wait until the engine is demonstrably mid-placement.
	waitEvent(t, s, id, func(e Event) bool { return e.Type == "sample" })

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: %d, want 202", resp.StatusCode)
	}
	m := waitState(t, s, id, StateCanceled)
	if !strings.Contains(m.Error, "canceled") {
		t.Fatalf("canceled job error %q", m.Error)
	}
	waitCount(t, s, "serve.jobs_canceled", 1)
}

func TestJobDeadlineFailsJob(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	spec := slowSpec()
	spec.TimeoutSec = 0.2
	id := enqueue(t, s, spec)
	deadline := time.Now().Add(90 * time.Second)
	for {
		m, err := s.spool.ReadManifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.State == StateFailed {
			if !strings.Contains(m.Error, "deadline") {
				t.Fatalf("deadline failure error %q", m.Error)
			}
			waitCount(t, s, "serve.jobs_failed", 1)
			return
		}
		if m.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state %s (error %q), want failed(deadline)", m.State, m.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDeadlineCutStageIsNotDone: the stage a job's deadline cuts is
// announced as canceled, never as done — no checkpoint stands behind it.
func TestDeadlineCutStageIsNotDone(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	spec := slowSpec()
	spec.TimeoutSec = 0.5
	id := enqueue(t, s, spec)
	waitState(t, s, id, StateFailed)
	replay, _, cancel := s.ensureJob(id).hub.Subscribe()
	cancel()
	var place []string
	for _, e := range replay {
		if e.Type == "stage" && e.Stage == pipeline.StagePlace {
			place = append(place, e.StageStatus)
		}
	}
	if len(place) != 1 || place[0] != "canceled" {
		t.Errorf("place stage events %q, want one \"canceled\"", place)
	}
}

func TestDrainParksRunningJobAndRestartFinishes(t *testing.T) {
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := enqueue(t, s, slowSpec())
	waitEvent(t, s, id, func(e Event) bool { return e.Type == "sample" })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := s.spool.ReadManifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateParked {
		t.Fatalf("after drain: state %s, want parked", m.State)
	}
	waitCount(t, s, "serve.jobs_parked", 1)
	if m.StartedAt != nil || m.FinishedAt != nil {
		t.Fatalf("parked manifest keeps timestamps: %+v", m)
	}
	if m.Result == nil || m.Result.RuntimeMS <= 0 {
		t.Fatalf("parked manifest lacks the attempt's partial result: %+v", m.Result)
	}
	// Draining daemons stop admitting.
	body, _ := json.Marshal(quickSpec())
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}

	// "Restart": a fresh server over the same spool re-admits and finishes.
	s2 := newTestServer(t, Config{SpoolDir: spool})
	if s2.Recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", s2.Recovered)
	}
	s2.Start()
	m2 := waitState(t, s2, id, StateDone)
	if m2.Attempts != 2 {
		t.Fatalf("resumed job attempts = %d, want 2", m2.Attempts)
	}
	if m2.Result == nil || m2.Result.HPWL <= 0 {
		t.Fatalf("resumed job result %+v", m2.Result)
	}
	// Statistics are cumulative across attempts: the final runtime covers
	// both the parked attempt and the resume, and GP work is never reported
	// as zero just because the final attempt resumed past (or reran) it.
	if m2.Result.RuntimeMS <= m.Result.RuntimeMS {
		t.Fatalf("resumed runtime %vms not cumulative over parked attempt's %vms",
			m2.Result.RuntimeMS, m.Result.RuntimeMS)
	}
	if m2.Result.GPIters == 0 {
		t.Fatal("resumed job reports gp_iters=0")
	}
}

// TestCrashResumeMatchesUninterruptedRun is the acceptance test for the
// spool resume path: a daemon "killed" right after the place stage's
// checkpoint lands must, on restart, resume from that checkpoint and
// produce exactly the final HPWL of an uninterrupted run — the pipeline's
// stage-boundary determinism carried through the job service. It runs for
// a profile job and for an upload job, whose spooled manifest no longer
// carries the upload: the restarted daemon rebuilds it from design/ alone.
func TestCrashResumeMatchesUninterruptedRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"profile", quickSpec()},
		{"upload", newUploadFixture(t).jobSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec

			// Reference: the same job, uninterrupted.
			ref := newTestServer(t, Config{})
			ref.Start()
			refID := enqueue(t, ref, spec)
			refM := waitState(t, ref, refID, StateDone)

			// Crash simulation: spool a job, run ONLY the place stage with
			// the exact design and configuration the worker builds, keep its
			// checkpoint, and leave the manifest in running — the state a
			// killed daemon leaves.
			dir := t.TempDir()
			sp, err := OpenSpool(dir)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Now().UTC()
			m := &Manifest{ID: "cafecafecafe", Spec: spec, State: StateQueued, SubmittedAt: now}
			if err := sp.CreateJob(m); err != nil {
				t.Fatal(err)
			}
			if m.Spec.Bookshelf != nil {
				t.Fatal("CreateJob left the upload in the manifest")
			}
			d, err := loadDesign(m.Spec.Profile, m.Spec.Scale, m.Spec.Seed, sp.JobDir(m.ID))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := flowConfig(spec.Seed, spec.MaxIters, spec.Workers, spec.Strategy, nil, NewHub())
			if err != nil {
				t.Fatal(err)
			}
			rc, err := pipeline.NewRunContext(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			placeOnly := pipeline.New(pipeline.Default()[0])
			placeOnly.Checkpointer = func(cp *pipeline.Checkpoint) error {
				return cp.Save(sp.CheckpointPath(m.ID))
			}
			if err := placeOnly.Run(context.Background(), rc); err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Update(m.ID, func(mm *Manifest) error {
				mm.State = StateRunning
				mm.Stage = pipeline.Default()[0].Name()
				mm.StartedAt = &now
				mm.Attempts = 1
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Restart over the crashed spool.
			s := newTestServer(t, Config{SpoolDir: dir})
			if s.Recovered != 1 {
				t.Fatalf("recovered %d jobs, want 1", s.Recovered)
			}
			s.Start()
			got := waitState(t, s, m.ID, StateDone)
			if got.Attempts != 2 {
				t.Fatalf("resumed attempts = %d, want 2", got.Attempts)
			}
			if got.Result.HPWL != refM.Result.HPWL {
				t.Fatalf("resumed HPWL %v != uninterrupted HPWL %v",
					got.Result.HPWL, refM.Result.HPWL)
			}
		})
	}
}

// TestRoutedJobScoredByEvaluationRouter: a routed job — a profile job and an
// upload — reports exactly the HOF, VOF and routed WL that
// router.DefaultConfig gives on the flow's grid, the router puffer,
// puffer explore and Table II judge with.
func TestRoutedJobScoredByEvaluationRouter(t *testing.T) {
	fx := newUploadFixture(t)
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	s.Start()
	for _, tc := range []struct {
		name string
		spec JobSpec
		d    *netlist.Design // the job's design, as uploaded or generated
	}{
		{"profile", quickSpec(), synth.Generate(p, quickSpec().Scale, quickSpec().Seed)},
		{"upload", fx.jobSpec(), fx.design(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Route = true
			got := waitState(t, s, enqueue(t, s, tc.spec), StateDone).Result

			cfg, err := flowConfig(tc.spec.Seed, tc.spec.MaxIters, tc.spec.Workers, tc.spec.Strategy, nil, NewHub())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := puffer.Run(tc.d, cfg); err != nil {
				t.Fatal(err)
			}
			rcfg := router.DefaultConfig()
			rcfg.GridW, rcfg.GridH = router.GridFor(tc.d)
			want := router.Route(tc.d, rcfg)
			if got.HOF != want.HOF || got.VOF != want.VOF || got.RoutedWL != want.WL {
				t.Errorf("job HOF/VOF/WL %v/%v/%v, evaluation router %v/%v/%v",
					got.HOF, got.VOF, got.RoutedWL, want.HOF, want.VOF, want.WL)
			}
		})
	}
}

// TestResumeSurvivesCorruptCheckpoint: a damaged checkpoint demotes the
// recovered job to a fresh run instead of failing it.
func TestResumeSurvivesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := quickSpec()
	m := &Manifest{ID: "badbadbadbad", Spec: spec, State: StateRunning,
		SubmittedAt: time.Now().UTC(), Stage: "place", Attempts: 1}
	if err := sp.CreateJob(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sp.CheckpointPath(m.ID), []byte(`{"format":"puffer/checkpoint/v1","stage":"place"`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{SpoolDir: dir})
	s.Start()
	got := waitState(t, s, m.ID, StateDone)
	if got.Result == nil || got.Result.HPWL <= 0 {
		t.Fatalf("job with corrupt checkpoint: %+v", got.Result)
	}
}

func TestBuildResultMergesPriorAttempt(t *testing.T) {
	rec := &pipeline.Record{Final: pipeline.Final{RuntimeMS: 2000}}

	// No prior attempt: the attempt's own numbers pass through.
	out := buildResult(rec, nil)
	if out.RuntimeMS != 2000 || out.GPIters != 0 {
		t.Fatalf("fresh attempt result %+v", out)
	}

	// Resumed past GP and padding: this attempt's counters are zero, so the
	// parked attempt's survive; runtime accumulates.
	prior := &JobResult{GPIters: 42, GPOverflow: 0.07, PaddingRuns: 3, RuntimeMS: 1500}
	out = buildResult(rec, prior)
	if out.GPIters != 42 || out.GPOverflow != 0.07 || out.PaddingRuns != 3 {
		t.Fatalf("merge dropped parked attempt's counters: %+v", out)
	}
	if out.RuntimeMS != 3500 {
		t.Fatalf("merged runtime %vms, want 3500", out.RuntimeMS)
	}

	// Reran GP from scratch (no checkpoint landed before the park): the
	// rerun's counters win, runtime still accumulates.
	rec.Final.GPIters = 10
	rec.Final.GPOverflow = 0.5
	out = buildResult(rec, prior)
	if out.GPIters != 10 || out.GPOverflow != 0.5 {
		t.Fatalf("rerun counters overridden by stale prior: %+v", out)
	}
	if out.RuntimeMS != 3500 {
		t.Fatalf("merged runtime %vms, want 3500", out.RuntimeMS)
	}
}

func TestExploreJobRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration budget too slow for -short")
	}
	s := newTestServer(t, Config{})
	s.Start()
	// MaxIters keeps each exploration trial's placement cheap — the test
	// exercises the job plumbing, not the SMBO's convergence. The cap is
	// below GP's first padding round, so every trial scores the same: the
	// run ends after the global pass's two trials, and the job's event
	// stream must say so.
	spec := JobSpec{Kind: KindExplore, Profile: "MEDIA_SUBSYS", Scale: 6000, Seed: 3, Budget: 2, MaxIters: 60}
	spec.Normalize()
	id := enqueue(t, s, spec)
	m := waitState(t, s, id, StateDone)
	if m.Result == nil || m.Result.Trials != 2 {
		t.Fatalf("explore result %+v, want the global pass's 2 trials", m.Result)
	}
	if _, err := os.Stat(s.spool.JobDir(id) + "/strategy.json"); err != nil {
		t.Fatalf("tuned strategy artifact: %v", err)
	}
	replay, _, cancel := s.ensureJob(id).hub.Subscribe()
	cancel()
	want := fmt.Sprintf("explore: all %d trials scored", m.Result.Trials)
	if !slices.ContainsFunc(replay, func(e Event) bool { return e.Type == "log" && strings.HasPrefix(e.Line, want) }) {
		t.Errorf("no %q line in the job's event stream", want)
	}
}

// TestExploreJobShipsItsBestScore: the strategy an explore job spools,
// judged on the job's design with the job's place configuration, scores
// exactly the job's best_score.
func TestExploreJobShipsItsBestScore(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration budget too slow for -short")
	}
	s := newTestServer(t, Config{})
	s.Start()
	// No MaxIters: a GP capped before its first padding round scores every
	// strategy alike, and any strategy would match best_score.
	spec := JobSpec{Kind: KindExplore, Profile: "MEDIA_SUBSYS", Scale: 6000, Seed: 3, Budget: 2}
	spec.Normalize()
	id := enqueue(t, s, spec)
	got := waitState(t, s, id, StateDone).Result

	st, err := puffer.LoadStrategy(filepath.Join(s.spool.JobDir(id), "strategy.json"))
	if err != nil {
		t.Fatal(err)
	}
	jobCfg, err := flowConfig(spec.Seed, spec.MaxIters, spec.Workers, nil, nil, NewHub())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Place = jobCfg.Place
	cfg.Strategy = st
	p, err := synth.ProfileByName(spec.Profile)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := pipeline.Judge(context.Background(), pipeline.PUFFER, synth.Generate(p, spec.Scale, spec.Seed), cfg, pipeline.Default())
	if err != nil {
		t.Fatal(err)
	}
	if score := rec.Final.HOF + rec.Final.VOF; score != got.BestScore {
		t.Errorf("spooled strategy scores HOF+VOF %v, job best_score %v", score, got.BestScore)
	}
}

func TestConcurrentJobsIsolatedRegistries(t *testing.T) {
	// Two jobs running simultaneously on separate workers must keep their
	// telemetry apart: each hub sees only its own job's samples, and the
	// results match the same specs run serially.
	s := newTestServer(t, Config{Workers: 2})
	s.Start()
	specA, specB := quickSpec(), quickSpec()
	specB.Seed = 11
	idA := enqueue(t, s, specA)
	idB := enqueue(t, s, specB)
	mA := waitState(t, s, idA, StateDone)
	mB := waitState(t, s, idB, StateDone)

	serial := newTestServer(t, Config{Workers: 1})
	serial.Start()
	sA := waitState(t, serial, enqueue(t, serial, specA), StateDone)
	sB := waitState(t, serial, enqueue(t, serial, specB), StateDone)
	if mA.Result.HPWL != sA.Result.HPWL {
		t.Errorf("seed-5 concurrent HPWL %v != serial %v", mA.Result.HPWL, sA.Result.HPWL)
	}
	if mB.Result.HPWL != sB.Result.HPWL {
		t.Errorf("seed-11 concurrent HPWL %v != serial %v", mB.Result.HPWL, sB.Result.HPWL)
	}
	if mA.Result.HPWL == mB.Result.HPWL {
		t.Errorf("different seeds produced identical HPWL %v — suspicious bleed", mA.Result.HPWL)
	}
}

func TestSSEOfPreRestartJobTerminates(t *testing.T) {
	// A job finished before the daemon restarted has no hub this boot; its
	// event stream must still answer with the durable state and end.
	dir := t.TempDir()
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	m := &Manifest{ID: "feedfeedfeed", Spec: quickSpec(), State: StateDone,
		SubmittedAt: now, FinishedAt: &now, Attempts: 1,
		Result: &JobResult{HPWL: 123}}
	if err := sp.CreateJob(m); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{SpoolDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/api/v1/jobs/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err) // a hang here means the stream never terminated
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), `"state":"done"`) {
		t.Fatalf("synthetic stream: %q", buf.String())
	}
}

// stalledWriter is an SSE client that stops reading: its first Write
// blocks until release is closed.
type stalledWriter struct {
	*httptest.ResponseRecorder
	stalled chan struct{} // closed when the first Write blocks
	release chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	select {
	case <-w.stalled:
	default:
		close(w.stalled)
	}
	<-w.release
	return w.ResponseRecorder.Write(p)
}

func TestSSEStalledWatcherStillEndsOnTerminalState(t *testing.T) {
	// A watcher that stops reading overflows its live-event buffer and
	// has events dropped — but never the end of the stream: once the hub
	// closes, everything after the last event it was sent is replayed.
	s := newTestServer(t, Config{})
	hub := NewHub()
	w := &stalledWriter{ResponseRecorder: httptest.NewRecorder(),
		stalled: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.streamHub(w, httptest.NewRequest("GET", "/events", nil), hub, Event{})
	}()

	hub.Publish(Event{Type: "state", State: StateRunning})
	<-w.stalled
	const burst = 300 // > the 256-slot subscriber buffer
	for i := 0; i < burst; i++ {
		hub.Publish(Event{Type: "sample", Series: "place.hpwl", Step: i})
	}
	hub.Publish(Event{Type: "state", State: StateDone})
	hub.Close()
	close(w.release)
	<-done

	var last Event
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			last = Event{}
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
		}
	}
	if last.Type != "state" || last.State != StateDone || last.Seq != burst+2 {
		t.Fatalf("stream ended on %+v, want the terminal state with seq %d", last, burst+2)
	}
}

func TestRetryAfterEstimateUsesObservedDurations(t *testing.T) {
	// After a completed job the 429 hint reflects real runtimes rather
	// than the 1-second floor... unless jobs genuinely run sub-second, in
	// which case the floor IS the estimate. Assert only coherence.
	s := newTestServer(t, Config{QueueCap: 1})
	s.Start()
	id := enqueue(t, s, quickSpec())
	waitState(t, s, id, StateDone)
	ra := s.queue.RetryAfter(cap(s.slots))
	if ra < time.Second || ra > 10*time.Minute {
		t.Fatalf("RetryAfter out of range: %s", ra)
	}
}
