package coord

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
	"time"

	"puffer/internal/client"
	"puffer/internal/serve"
)

// newStandalone is a standalone daemon (pool not started: jobs stay queued).
func newStandalone(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{SpoolDir: t.TempDir()})
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

// busyNode registers a worker that heartbeats as healthy but answers every
// submission 429, so the coordinator's jobs stay in its own queue.
func busyNode(t *testing.T, coordURL, id string) {
	t.Helper()
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		serve.APIError(w, http.StatusTooManyRequests, "queue full")
	}))
	t.Cleanup(ws.Close)
	err := client.New(coordURL, nil).Announce(context.Background(), NodeManifest{
		Format: NodeManifestFormat, ID: id, Addr: ws.URL, Engine: serve.EngineVersion,
		Stats: serve.Stats{QueueCap: 16, Workers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRouteTable: the coordinator's surface is the standalone surface
// minus the (local-only) session routes plus the two node routes — one mux,
// probed from outside. An unregistered pattern falls through to the mux's
// plain-text 404; every registered one answers with something else.
func TestRouteTable(t *testing.T) {
	shared := []string{
		"POST /api/v1/jobs", "GET /api/v1/jobs", "GET /api/v1/jobs/x", "GET /api/v1/jobs/x/events",
		"GET /api/v1/jobs/x/result", "GET /api/v1/jobs/x/artifacts/a", "POST /api/v1/jobs/x/cancel",
		"GET /healthz", "GET /readyz", "GET /api/v1/ops", "GET /metrics", "GET /debug/vars",
	}
	sessions := []string{
		"POST /api/v1/sessions", "GET /api/v1/sessions", "GET /api/v1/sessions/x",
		"POST /api/v1/sessions/x/deltas", "GET /api/v1/sessions/x/events", "DELETE /api/v1/sessions/x",
	}
	nodes := []string{"POST /api/v1/nodes", "GET /api/v1/nodes"}
	all := append(append(append([]string{}, shared...), sessions...), nodes...)

	registered := func(base string) []string {
		var out []string
		for _, route := range all {
			method, path, _ := strings.Cut(route, " ")
			req, _ := http.NewRequest(method, base+path, strings.NewReader("{}"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(string(body), "404 page not found") {
				continue
			}
			out = append(out, route)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		sort.Strings(out)
		return out
	}

	_, sh := newStandalone(t)
	if got, want := registered(sh.URL), sorted(shared, sessions); !reflect.DeepEqual(got, want) {
		t.Errorf("standalone routes:\n got %v\nwant %v", got, want)
	}
	_, ch := newCoordinator(t, Config{})
	if got, want := registered(ch.URL), sorted(shared, nodes); !reflect.DeepEqual(got, want) {
		t.Errorf("coordinator routes:\n got %v\nwant %v", got, want)
	}
}

// TestListAndTopAgainstBothModes: the same internal/client calls decode the
// same document shapes from a standalone daemon and a coordinator — what
// `pufferctl list` and `pufferctl top` print. (Before the single handlers a
// coordinator's list returned bare manifests — blank KIND/DESIGN/HPWL — and
// its ops lacked queue_depth/queue_cap/histograms/slo.)
func TestListAndTopAgainstBothModes(t *testing.T) {
	_, sh := newStandalone(t)
	_, ch := newCoordinator(t, Config{})
	busyNode(t, ch.URL, "n1")

	upload := serve.JobSpec{Bookshelf: uploadFiles(t), Seed: 5}
	for _, tc := range []struct {
		name        string
		url         string
		coordinator bool
	}{{"standalone", sh.URL, false}, {"coordinator", ch.URL, true}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			c := client.New(tc.url, nil)
			for _, spec := range []serve.JobSpec{quickFleetSpec(), upload} {
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
				if r.ID == "" || r.Kind != serve.KindPlace || r.Design == "" || r.State == "" ||
					r.SubmittedAt.IsZero() || r.Tenant != "alice" {
					t.Errorf("list row lacks a column pufferctl prints: %+v", r)
				}
			}

			// The busy node bounces the first dispatch; wait for the job to
			// be back in line.
			var ops *client.Ops
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if ops, err = c.Ops(ctx); err != nil {
					t.Fatal(err)
				}
				if (ops.QueueDepth == 2 && ops.ActiveJobs == 0) || time.Now().After(deadline) {
					break
				}
			}
			if ops.Status != "serving" || ops.QueueDepth != 2 || ops.QueueCap == 0 || ops.Workers == 0 ||
				ops.Counters["serve.jobs_submitted"] != 2 || len(ops.SLO) == 0 || !ops.SLOHealthy {
				t.Errorf("ops header: %+v", ops)
			}
			if h, ok := ops.Histograms["serve.http_request_seconds"]; !ok || h.Count == 0 {
				t.Errorf("ops histograms: %v", ops.Histograms)
			}
			if !tc.coordinator {
				if ops.Role != "" || ops.Nodes != nil || ops.Cache != nil {
					t.Errorf("standalone ops carries fleet keys: role %q", ops.Role)
				}
				return
			}
			if ops.Role != "coordinator" || len(ops.Nodes) != 1 || ops.Nodes[0].ID != "n1" ||
				ops.Workers != 3 || ops.Cache["blobs"] != 1 {
				t.Errorf("coordinator ops: role %q nodes %+v workers %d cache %v", ops.Role, ops.Nodes, ops.Workers, ops.Cache)
			}
			if _, ok := ops.Histograms["coord.dispatch_seconds"]; !ok {
				t.Errorf("coordinator ops lacks the coord.dispatch_seconds histogram")
			}
		})
	}
}

// TestAdmissionFailureReleasesRef: a submission refused after it was
// content-addressed leaves nothing behind — no job directory and, above
// all, no reference pinning the design blob against GC forever.
func TestAdmissionFailureReleasesRef(t *testing.T) {
	cs, ch := newCoordinator(t, Config{})
	// Make every job directory unwritable (works as root too): the spool's
	// jobs/ becomes a plain file.
	jobs := filepath.Join(cs.Spool().Root(), "jobs")
	if err := os.RemoveAll(jobs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobs, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.JobSpec{Bookshelf: uploadFiles(t), Seed: 5})
	resp, err := http.Post(ch.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit into an unwritable spool answered %d, want 500", resp.StatusCode)
	}
	idx := cs.Store().Snapshot()
	if len(idx.Blobs) != 1 {
		t.Fatalf("CAS holds %d blobs, want the one upload", len(idx.Blobs))
	}
	for _, b := range idx.Blobs {
		if b.Refs != 0 {
			t.Errorf("blob %s still has %d refs after the refused submission", b.Digest, b.Refs)
		}
	}
	if st, err := os.Stat(jobs); err != nil || st.IsDir() {
		t.Fatalf("a job directory appeared: %v", err)
	}
}

// TestQueueCapIsAtomic: with nothing to dispatch to, 32 concurrent
// submissions against a cap of 4 admit exactly 4; the rest are told when to
// come back, and leave no job behind.
func TestQueueCapIsAtomic(t *testing.T) {
	cs, ch := newCoordinator(t, Config{Config: serve.Config{QueueCap: 4}})
	const n = 32
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := quickFleetSpec()
			spec.Seed = int64(1000 + i)
			body, _ := json.Marshal(spec)
			<-start
			resp, err := http.Post(ch.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
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
	if ms, _ := cs.Spool().List(); len(ms) != 4 {
		t.Fatalf("spool holds %d jobs, want 4", len(ms))
	}
}
