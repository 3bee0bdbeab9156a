package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// maxUploadManifest bounds every manifest an upload job spools, a
// session's included:
// about what a profile job's manifest takes, far below the upload itself.
const maxUploadManifest = 8 << 10

// uploadFixture is an upload the size the serve benchmark sends: OR1200 at
// scale 200 written by bookshelf.Write, as the file map a client inlines,
// and the same files on disk for in-process reference runs.
type uploadFixture struct {
	files map[string]string
	aux   string // path of the .aux on disk
}

func newUploadFixture(t *testing.T) uploadFixture {
	t.Helper()
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	aux, err := bookshelf.Write(synth.Generate(p, 200, 11), dir, "or1200")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fx := uploadFixture{files: map[string]string{}, aux: aux}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fx.files[e.Name()] = string(data)
	}
	if body, _ := json.Marshal(JobSpec{Bookshelf: fx.files}); len(body) < 200<<10 {
		t.Fatalf("upload fixture is %d bytes of JSON, want a harness-sized one (≥ 200 KB)", len(body))
	}
	return fx
}

// design parses the fixture's files, as an in-process reference run would.
func (fx uploadFixture) design(t *testing.T) *netlist.Design {
	t.Helper()
	d, err := bookshelf.Parse(fx.aux)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// jobSpec is the job the fixture's tests submit.
func (fx uploadFixture) jobSpec() JobSpec {
	s := JobSpec{Bookshelf: fx.files, Seed: 3, MaxIters: 100, Workers: 1}
	s.Normalize()
	return s
}

// referenceHPWL places the fixture in process, uninterrupted, under the
// configuration a worker builds for spec.
func (fx uploadFixture) referenceHPWL(t *testing.T, spec JobSpec) float64 {
	t.Helper()
	cfg, err := flowConfig(spec.Seed, spec.MaxIters, spec.Workers, spec.Strategy, nil, NewHub())
	if err != nil {
		t.Fatal(err)
	}
	res, err := puffer.Run(fx.design(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.HPWL
}

// manifestWatch sees every manifest a spool writes while a test runs,
// through the spool's write seam — so no rewrite is missed however loaded
// the host is — recording the largest and how many were written.
type manifestWatch struct {
	mu       sync.Mutex
	max      int64
	versions int
}

func watchManifests(sp *Spool) *manifestWatch {
	w := &manifestWatch{}
	sp.onWrite = func(data []byte) {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.versions++
		w.max = max(w.max, int64(len(data)))
	}
	return w
}

// check fails t unless every manifest written so far stayed under
// maxUploadManifest and at least minVersions were written.
func (w *manifestWatch) check(t *testing.T, minVersions int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.max >= maxUploadManifest {
		t.Errorf("a spooled manifest reached %d bytes, want < %d: the upload is still inline", w.max, maxUploadManifest)
	}
	if w.versions < minVersions {
		t.Errorf("the spool wrote %d manifest versions, want ≥ %d", w.versions, minVersions)
	}
}

// getRaw fetches url and returns the body, failing t on a non-200.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return body
}

// postRaw posts v as JSON and returns the body, failing t unless the
// daemon answers 202.
func postRaw(t *testing.T, url string, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: %d %v %s", url, resp.StatusCode, err, body)
	}
	return body
}

// noUpload fails t if a served document carries the upload.
func noUpload(t *testing.T, what string, body []byte) {
	t.Helper()
	if bytes.Contains(body, []byte(`"bookshelf"`)) || len(body) >= maxUploadManifest {
		t.Errorf("%s carries the upload (%d bytes)", what, len(body))
	}
}

// TestUploadJobStoredOnce: an upload job's files live only in design/.
// Every manifest it spools, the 202 body and the status document stay
// small; the list row still names the .aux; and the job places exactly
// like an in-process run on the same files.
func TestUploadJobStoredOnce(t *testing.T) {
	fx := newUploadFixture(t)
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	watch := watchManifests(s.spool)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := fx.jobSpec()
	body := postRaw(t, ts.URL+"/api/v1/jobs", spec)
	noUpload(t, "202 submit body", body)
	var sub Manifest
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	m := waitState(t, s, sub.ID, StateDone)
	watch.check(t, 3) // queued, running, done at least

	noUpload(t, "GET /api/v1/jobs/{id}", getRaw(t, ts.URL+"/api/v1/jobs/"+m.ID))
	var rows []JobSummary
	if err := json.Unmarshal(getRaw(t, ts.URL+"/api/v1/jobs"), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Design != "or1200.aux" {
		t.Errorf("list rows %+v, want one naming or1200.aux", rows)
	}
	for name, content := range fx.files {
		got, err := os.ReadFile(filepath.Join(s.spool.JobDir(m.ID), "design", name))
		if err != nil || string(got) != content {
			t.Errorf("design/%s does not hold the uploaded bytes: %v", name, err)
		}
	}
	if want := fx.referenceHPWL(t, spec); m.Result.HPWL != want {
		t.Fatalf("job HPWL %v, in-process HPWL %v", m.Result.HPWL, want)
	}
}

// TestUploadSessionStoredOnce: the same for an ECO session opened from an
// upload and advanced by two deltas — the base placement and both deltas
// match an in-process eco.Session on the same files.
func TestUploadSessionStoredOnce(t *testing.T) {
	fx := newUploadFixture(t)
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	watch := watchManifests(s.spool)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Kind: KindSession, Bookshelf: fx.files, Seed: 3, MaxIters: 100, Workers: 1}
	spec.Normalize()
	body := postRaw(t, ts.URL+"/api/v1/jobs", spec)
	noUpload(t, "202 session submit body", body)
	var opened Manifest
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatal(err)
	}
	m := waitState(t, s, opened.ID, StateOpen)
	ref := fx.design(t)
	var deltas [][]byte
	var hpwl []float64
	for slot := 0; slot < 2; slot++ {
		delta := designDelta(t, ref, 3, slot)
		code, dr := postDelta(t, ts, m.ID, delta)
		if code != http.StatusOK {
			t.Fatalf("delta %d: status %d", slot, code)
		}
		deltas, hpwl = append(deltas, delta), append(hpwl, dr.HPWL)
	}
	watch.check(t, 5) // queued, running, open, one per delta

	noUpload(t, "GET /api/v1/jobs/{id}", getRaw(t, ts.URL+"/api/v1/jobs/"+m.ID))
	var rows []JobSummary
	if err := json.Unmarshal(getRaw(t, ts.URL+"/api/v1/jobs"), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Design != "or1200.aux" || rows[0].Kind != KindSession || snapshotOf(t, s, m.ID).Deltas != 2 {
		t.Errorf("session rows %+v, want one naming or1200.aux with 2 deltas", rows)
	}

	cfg, err := flowConfig(spec.Seed, spec.MaxIters, spec.Workers, spec.Strategy, nil, NewHub())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eco.New(ref, cfg, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Place(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL != m.Result.HPWL {
		t.Errorf("base placement HPWL %v, in-process %v", m.Result.HPWL, res.HPWL)
	}
	for i, delta := range deltas {
		dl, err := eco.ParseDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Apply(context.Background(), dl)
		if err != nil {
			t.Fatal(err)
		}
		if res.HPWL != hpwl[i] {
			t.Errorf("delta %d HPWL %v, in-process %v", i+1, hpwl[i], res.HPWL)
		}
	}
}

// TestParentUploadManifestRecovers: a job spooled the way daemons wrote
// uploads before they were stored once — files under design/ and inline in
// the manifest — still recovers, runs, and lists under its .aux name. The
// inline copy is never read: design/ alone serves both.
func TestParentUploadManifestRecovers(t *testing.T) {
	fx := newUploadFixture(t)
	spec := fx.jobSpec()
	dir := t.TempDir()
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{ID: "01d001d001d0", Spec: spec, State: StateQueued, SubmittedAt: time.Now().UTC()}
	design := filepath.Join(sp.JobDir(m.ID), "design")
	if err := os.MkdirAll(design, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range fx.files {
		if err := os.WriteFile(filepath.Join(design, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.write(m); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(sp.JobDir(m.ID), "manifest.json")); !strings.Contains(string(raw), `"bookshelf"`) {
		t.Fatal("fixture manifest lacks its inline upload")
	}

	s := newTestServer(t, Config{SpoolDir: dir})
	if s.Recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", s.Recovered)
	}
	s.Start()
	got := waitState(t, s, m.ID, StateDone)
	if want := fx.referenceHPWL(t, spec); got.Result.HPWL != want {
		t.Fatalf("recovered parent job HPWL %v, in-process HPWL %v", got.Result.HPWL, want)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var rows []JobSummary
	if err := json.Unmarshal(getRaw(t, ts.URL+"/api/v1/jobs"), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Design != "or1200.aux" {
		t.Errorf("list rows %+v, want one naming or1200.aux", rows)
	}
}
