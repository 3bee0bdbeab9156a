package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"puffer/internal/bookshelf"
	"puffer/internal/serve"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// fleetWorker is one in-process worker: a real serve.Server behind a real
// HTTP listener — exactly what pufferd runs, minus the process boundary.
type fleetWorker struct {
	srv  *serve.Server
	http *httptest.Server
	id   string
}

func newFleetWorker(t *testing.T, id string) *fleetWorker {
	t.Helper()
	srv, err := serve.New(serve.Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	w := &fleetWorker{srv: srv, http: hs, id: id}
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return w
}

func (w *fleetWorker) manifest() NodeManifest {
	return NodeManifest{
		Format: NodeManifestFormat,
		ID:     w.id,
		Addr:   w.http.URL,
		Engine: serve.EngineVersion,
		Stats:  w.srv.Stats(),
	}
}

// register posts one heartbeat for w to the coordinator (the tests use a
// long DeadAfter instead of a heartbeat loop).
func (w *fleetWorker) register(t *testing.T, coordURL string) {
	t.Helper()
	body, err := json.Marshal(w.manifest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coordURL+"/api/v1/nodes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat answered %d", resp.StatusCode)
	}
}

func newCoordinator(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.Poll == 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = time.Minute // liveness not under test unless set
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func submit(t *testing.T, url string, spec serve.JobSpec, headers map[string]string) *serve.Manifest {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit answered %d: %v", resp.StatusCode, e)
	}
	m := &serve.Manifest{}
	if err := json.NewDecoder(resp.Body).Decode(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitCoordState polls the coordinator's job status endpoint.
func waitCoordState(t *testing.T, url, id string, want serve.JobState) *serve.Manifest {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(url + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		m := &serve.Manifest{}
		err = json.NewDecoder(resp.Body).Decode(m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.State == want {
			return m
		}
		if m.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q) waiting for %s", id, m.State, m.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, m.State, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func quickFleetSpec() serve.JobSpec {
	s := serve.JobSpec{Kind: serve.KindPlace, Profile: "MEDIA_SUBSYS", Scale: 3000, Seed: 5}
	s.Normalize()
	return s
}

// uploadFiles materializes quickFleetSpec's design as a Bookshelf upload,
// so tests cover the blob-backed path (store once, reconstruct at
// dispatch).
func uploadFiles(t *testing.T) map[string]string {
	t.Helper()
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		t.Fatal(err)
	}
	d := synth.Generate(p, 3000, 5)
	dir := t.TempDir()
	if _, err := bookshelf.Write(d, dir, "up"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestFleetDedup is the core cache-correctness test: byte-identical
// submissions from two clients produce one pipeline run, one result
// digest, and a cache-hit second manifest; a one-byte config change
// misses.
func TestFleetDedup(t *testing.T) {
	w := newFleetWorker(t, "w1")
	cs, ch := newCoordinator(t, Config{})
	w.register(t, ch.URL)

	files := uploadFiles(t)
	spec := serve.JobSpec{Kind: serve.KindPlace, Bookshelf: files, Seed: 5}
	spec.Normalize()

	m1 := submit(t, ch.URL, spec, map[string]string{serve.TenantHeader: "alice"})
	if m1.CacheHit {
		t.Fatal("first submission can not be a cache hit")
	}
	if m1.DesignDigest == "" || m1.ConfigDigest == "" {
		t.Fatalf("digests missing from %+v", m1)
	}
	done1 := waitCoordState(t, ch.URL, m1.ID, serve.StateDone)
	if done1.Result == nil || done1.Result.HPWL <= 0 {
		t.Fatalf("result = %+v", done1.Result)
	}
	if done1.ResultDigest == "" {
		t.Fatal("finished job has no result digest")
	}

	// Byte-identical second submission, different tenant ("client").
	m2 := submit(t, ch.URL, spec, map[string]string{serve.TenantHeader: "bob"})
	if !m2.CacheHit || m2.Origin != m1.ID {
		t.Fatalf("second submission not a cache hit: hit=%v origin=%q", m2.CacheHit, m2.Origin)
	}
	if m2.State != serve.StateDone {
		t.Fatalf("cache hit state = %s", m2.State)
	}
	if m2.ResultDigest != done1.ResultDigest {
		t.Fatalf("result digests differ: %s vs %s", m2.ResultDigest, done1.ResultDigest)
	}
	if m2.Result == nil || m2.Result.HPWL != done1.Result.HPWL {
		t.Fatalf("cache hit result %+v vs %+v", m2.Result, done1.Result)
	}
	if m2.DesignDigest != m1.DesignDigest {
		t.Fatalf("design digests differ: %s vs %s", m2.DesignDigest, m1.DesignDigest)
	}
	// One pipeline run: the worker's spool saw exactly one job.
	workerJobs, err := w.srv.Spool().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(workerJobs) != 1 {
		t.Fatalf("worker ran %d jobs, want 1", len(workerJobs))
	}
	// One stored upload blob (byte-identical uploads deduplicate).
	if idx := cs.Store().Snapshot(); len(idx.Blobs) != 1 {
		t.Fatalf("CAS holds %d blobs, want 1", len(idx.Blobs))
	}

	// A one-byte config change (different seed) misses the cache.
	spec3 := spec
	spec3.Seed = 6
	m3 := submit(t, ch.URL, spec3, nil)
	if m3.CacheHit {
		t.Fatal("changed config still hit the cache")
	}
	if m3.DesignDigest != m1.DesignDigest {
		t.Fatal("design digest should be unchanged (same upload bytes)")
	}
	if m3.ConfigDigest == m1.ConfigDigest {
		t.Fatal("config digest did not change with the seed")
	}
	waitCoordState(t, ch.URL, m3.ID, serve.StateDone)

	// NoCache forces a rerun of a cached spec; bit-determinism means the
	// rerun reproduces the original result exactly.
	spec4 := spec
	spec4.NoCache = true
	m4 := submit(t, ch.URL, spec4, nil)
	if m4.CacheHit {
		t.Fatal("nocache submission was served from cache")
	}
	done4 := waitCoordState(t, ch.URL, m4.ID, serve.StateDone)
	if done4.Result.HPWL != done1.Result.HPWL {
		t.Fatalf("rerun HPWL %v != original %v", done4.Result.HPWL, done1.Result.HPWL)
	}
	if done4.ResultDigest != done1.ResultDigest {
		t.Fatalf("rerun result digest %s != original %s", done4.ResultDigest, done1.ResultDigest)
	}

	// One hit (m2) against three misses (m1, m3, and m4, which skips the
	// lookup); the three misses were each dispatched to the worker once.
	reg := cs.Registry()
	if hits, misses, rate := reg.Counter("coord.cache_hits").Value(), reg.Counter("coord.cache_misses").Value(),
		reg.Gauge("coord.cache_hit_rate").Value(); hits != 1 || misses != 3 || rate != 0.25 {
		t.Fatalf("cache hits %d, misses %d, hit rate %v; want 1, 3, 0.25", hits, misses, rate)
	}
	if n := reg.Histogram("coord.dispatch_seconds").Count(); n != 3 {
		t.Fatalf("coord.dispatch_seconds holds %d dispatches, want 3", n)
	}
}

// TestProfileCacheAndArtifacts: synthetic-profile jobs content-address
// without a blob, and finished artifacts serve from the coordinator's
// mirror (including for cache hits, via Origin). The merged Chrome trace
// must contain both coordinator and worker spans.
func TestProfileCacheAndArtifacts(t *testing.T) {
	w := newFleetWorker(t, "w1")
	cs, ch := newCoordinator(t, Config{})
	w.register(t, ch.URL)

	m1 := submit(t, ch.URL, quickFleetSpec(), nil)
	done := waitCoordState(t, ch.URL, m1.ID, serve.StateDone)
	if done.DesignDigest == "" || done.ConfigDigest == "" {
		t.Fatalf("digests missing: %+v", done)
	}

	m2 := submit(t, ch.URL, quickFleetSpec(), nil)
	if !m2.CacheHit {
		t.Fatal("identical profile submission missed the cache")
	}
	// Artifacts resolve through Origin for cache hits.
	for _, id := range []string{m1.ID, m2.ID} {
		resp, err := http.Get(ch.URL + "/api/v1/jobs/" + id + "/artifacts/report.json")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact for %s answered %d", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ch.URL + "/api/v1/jobs/" + m1.ID + "/artifacts/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	var sawCoord, sawWorker bool
	for _, ev := range trace.TraceEvents {
		if ev.Name == "coord.job" || ev.Name == "coord.dispatch" {
			sawCoord = true
		}
		if ev.PID > 1 {
			sawWorker = true
		}
	}
	if !sawCoord || !sawWorker {
		t.Fatalf("merged trace lacks coordinator (%v) or worker (%v) spans", sawCoord, sawWorker)
	}
	// The CAS index recorded exactly one result for this triple.
	if idx := cs.Store().Snapshot(); len(idx.Results) != 1 {
		t.Fatalf("CAS results = %d, want 1", len(idx.Results))
	}
}

// TestReadyzNoWorkers: the coordinator-aware readiness contract — an
// empty fleet is not ready, with the no_workers reason.
func TestReadyzNoWorkers(t *testing.T) {
	_, ch := newCoordinator(t, Config{})
	resp, err := http.Get(ch.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("empty fleet readyz = %d ready=%v", resp.StatusCode, body.Ready)
	}
	found := false
	for _, r := range body.Reasons {
		if r == "no_workers" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want no_workers", body.Reasons)
	}

	w := newFleetWorker(t, "w1")
	w.register(t, ch.URL)
	resp, err = http.Get(ch.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with live worker = %d", resp.StatusCode)
	}
}

// TestFailover: a worker that parks its job (drain — the graceful twin of
// a crash) triggers re-admission on the surviving worker, and the final
// HPWL is exactly the uninterrupted run's: the determinism contract that
// makes failover invisible to results.
func TestFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet failover test")
	}
	slow := serve.JobSpec{Kind: serve.KindPlace, Profile: "MEDIA_SUBSYS", Scale: 400, Seed: 5}
	slow.Normalize()

	w1 := newFleetWorker(t, "w1")
	w2 := newFleetWorker(t, "w2")
	cs, ch := newCoordinator(t, Config{})
	w1.register(t, ch.URL)

	// Reference: uninterrupted run on w1.
	ref := submit(t, ch.URL, slow, nil)
	refDone := waitCoordState(t, ch.URL, ref.ID, serve.StateDone)

	// Same spec, forced rerun; w1 will park it mid-flight.
	spec := slow
	spec.NoCache = true
	m := submit(t, ch.URL, spec, nil)
	waitCoordState(t, ch.URL, m.ID, serve.StateRunning)
	time.Sleep(500 * time.Millisecond) // let some stages land

	// Register w2, then drain w1: the running job parks, the watcher sees
	// it and requeues, and dispatch lands on w2.
	w2.register(t, ch.URL)
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := w1.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain w1: %v", err)
	}
	// Refresh w1's registration so the coordinator sees Draining stats
	// instead of retry-looping against its 503s.
	w1.register(t, ch.URL)

	done := waitCoordState(t, ch.URL, m.ID, serve.StateDone)
	if done.Node != "w2" {
		t.Fatalf("failover landed on %q, want w2", done.Node)
	}
	if done.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", done.Attempts)
	}
	if done.Result.HPWL != refDone.Result.HPWL {
		t.Fatalf("failover HPWL %v != uninterrupted %v", done.Result.HPWL, refDone.Result.HPWL)
	}
	if got := cs.Registry().Counter("coord.jobs_failed_over").Value(); got < 1 {
		t.Fatalf("coord.jobs_failed_over = %d", got)
	}
}

// TestPendingBackpressure: with no workers everything queues, and the
// pending cap turns into 429 + Retry-After at the coordinator's door.
func TestPendingBackpressure(t *testing.T) {
	_, ch := newCoordinator(t, Config{Config: serve.Config{QueueCap: 2}})
	spec := quickFleetSpec()
	submit(t, ch.URL, spec, nil)
	s2 := spec
	s2.Seed = 991
	submit(t, ch.URL, s2, nil)
	s3 := spec
	s3.Seed = 992
	body, err := json.Marshal(s3)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ch.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestMirrorFollowsEveryStage: a worker writes each stage's checkpoint
// before it announces the stage, and the coordinator mirrors on every
// stage event, so a job that ran to done has its dp checkpoint mirrored; a
// failover from there would resume, not restart cold.
func TestMirrorFollowsEveryStage(t *testing.T) {
	w := newFleetWorker(t, "w1")
	cs, ch := newCoordinator(t, Config{})
	w.register(t, ch.URL)

	m := submit(t, ch.URL, quickFleetSpec(), nil)
	done := waitCoordState(t, ch.URL, m.ID, serve.StateDone)
	if done.Stage != pipeline.StageDP {
		t.Errorf("coordinator manifest stage %q, want %q", done.Stage, pipeline.StageDP)
	}
	path, err := cs.Spool().ArtifactPath(m.ID, "checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pipeline.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("no mirrored checkpoint: %v", err)
	}
	if cp.Stage != done.Stage {
		t.Errorf("mirrored checkpoint is at %q, manifest says %q", cp.Stage, done.Stage)
	}
}
