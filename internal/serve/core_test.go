package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"puffer/internal/bookshelf"
	"puffer/internal/client"
	"puffer/internal/serve"
	"puffer/internal/synth"
)

// newUnstarted is a daemon whose pool never starts: jobs stay queued.
func newUnstarted(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg.SpoolDir = t.TempDir()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func quickProfileSpec() serve.JobSpec {
	s := serve.JobSpec{Kind: serve.KindPlace, Profile: "MEDIA_SUBSYS", Scale: 3000, Seed: 5}
	s.Normalize()
	return s
}

// uploadFiles materializes quickProfileSpec's design as a Bookshelf upload.
func uploadFiles(t *testing.T) map[string]string {
	t.Helper()
	p, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := bookshelf.Write(synth.Generate(p, 3000, 5), dir, "up"); err != nil {
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

// TestRouteTable: the daemon registers exactly the job routes, the
// session's deltas route, the probes and the debug surface — one mux,
// probed from outside. An unregistered pattern (the retired node registry's
// and session family's among them) falls through to the mux's plain-text
// 404; every registered one answers with something else.
func TestRouteTable(t *testing.T) {
	shared := []string{
		"POST /api/v1/jobs", "GET /api/v1/jobs", "GET /api/v1/jobs/x", "GET /api/v1/jobs/x/events",
		"GET /api/v1/jobs/x/result", "GET /api/v1/jobs/x/artifacts/a", "POST /api/v1/jobs/x/cancel",
		"GET /healthz", "GET /readyz", "GET /api/v1/ops", "GET /metrics", "GET /debug/vars",
	}
	sessions := []string{"POST /api/v1/jobs/x/deltas"}
	unregistered := []string{
		"POST /api/v1/nodes", "GET /api/v1/nodes",
		"POST /api/v1/sessions", "GET /api/v1/sessions", "GET /api/v1/sessions/x",
		"POST /api/v1/sessions/x/deltas", "GET /api/v1/sessions/x/events", "DELETE /api/v1/sessions/x",
	}

	_, hs := newUnstarted(t, serve.Config{})
	var got []string
	for _, route := range append(append(append([]string{}, shared...), sessions...), unregistered...) {
		method, path, _ := strings.Cut(route, " ")
		req, _ := http.NewRequest(method, hs.URL+path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(string(body), "404 page not found") {
			continue
		}
		got = append(got, route)
	}
	want := append(append([]string{}, shared...), sessions...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("routes:\n got %v\nwant %v", got, want)
	}
}

// TestListAndTop: the internal/client calls behind `pufferctl list` and
// `pufferctl top` decode the documents of a standalone daemon (the one
// kind pufferd runs) with every column they print, and the list never
// inlines an upload.
func TestListAndTop(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		_, hs := newUnstarted(t, serve.Config{})
		ctx := context.Background()
		c := client.New(hs.URL, nil)
		upload := serve.JobSpec{Bookshelf: uploadFiles(t), Seed: 5}
		for _, spec := range []serve.JobSpec{quickProfileSpec(), upload} {
			if _, err := c.Submit(ctx, spec, client.SubmitOptions{Tenant: "alice"}); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := c.Call(ctx, http.MethodGet, "/api/v1/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte("NumNodes")) || bytes.Contains(raw, []byte(`"spec"`)) {
			t.Error("list inlines the submission (Bookshelf payload)")
		}
		rows, err := c.Jobs(ctx)
		if err != nil || len(rows) != 2 {
			t.Fatalf("Jobs = %d rows, %v", len(rows), err)
		}
		for _, r := range rows {
			if r.ID == "" || r.Kind != serve.KindPlace || r.Design == "" || r.State != serve.StateQueued ||
				r.SubmittedAt.IsZero() || r.Tenant != "alice" {
				t.Errorf("list row lacks a column pufferctl prints: %+v", r)
			}
		}

		ops, err := c.Ops(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ops.Status != "serving" || ops.QueueDepth != 2 || ops.QueueCap == 0 || ops.Workers == 0 ||
			ops.ActiveJobs != 0 || ops.Sessions == nil ||
			ops.Counters["serve.jobs_submitted"] != 2 || len(ops.SLO) == 0 || !ops.SLOHealthy {
			t.Errorf("ops header: %+v", ops)
		}
		if h, ok := ops.Histograms["serve.http_request_seconds"]; !ok || h.Count == 0 {
			t.Errorf("ops histograms: %v", ops.Histograms)
		}
	})
}

// TestQueueCapIsAtomic: with the pool not started, 32 concurrent
// submissions against a cap of 4 admit exactly 4; the rest are told when
// to come back, and leave no job behind.
func TestQueueCapIsAtomic(t *testing.T) {
	s, hs := newUnstarted(t, serve.Config{QueueCap: 4})
	const n = 32
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := quickProfileSpec()
			spec.Seed = int64(1000 + i)
			body, _ := json.Marshal(spec)
			<-start
			resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i], retryAfter[i] = resp.StatusCode, resp.Header.Get("Retry-After")
		}(i)
	}
	close(start)
	wg.Wait()
	accepted := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("submission %d answered %d", i, code)
		}
	}
	if accepted != 4 {
		t.Fatalf("%d of %d concurrent submissions admitted against cap 4", accepted, n)
	}
	if ms, _ := s.Spool().List(); len(ms) != 4 {
		t.Fatalf("spool holds %d jobs, want 4", len(ms))
	}
}

// TestSubmitRejectsRetiredFields: a submission carrying a field of the
// retired fleet tier answers 400 from the strict decoder and spools
// nothing. A standalone daemon used to accept nocache and ignore it.
func TestSubmitRejectsRetiredFields(t *testing.T) {
	s, hs := newUnstarted(t, serve.Config{})
	for _, body := range []string{
		`{"kind":"explore","profile":"OR1200","distributed":true}`,
		`{"profile":"OR1200","nocache":true}`,
		`{"profile":"OR1200","checkpoint":{"format":"puffer/checkpoint/v1","stage":"place"}}`,
	} {
		resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Errorf("submit %s: %d %s, want 400 naming the unknown field", body, resp.StatusCode, msg)
		}
	}
	if ms, _ := s.Spool().List(); len(ms) != 0 {
		t.Fatalf("spool holds %d jobs after rejections, want 0", len(ms))
	}
}
