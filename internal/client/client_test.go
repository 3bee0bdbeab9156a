package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"puffer/internal/obs"
	"puffer/internal/serve"
)

// newTest returns a client for h whose backpressure sleeps are recorded
// instead of slept.
func newTest(t *testing.T, h http.Handler) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL+"/", nil)
	var slept []time.Duration
	c.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	return c, &slept
}

func TestSubmitRetriesBackpressure(t *testing.T) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, tc := range []struct {
		name      string
		full      int // leading 429 answers
		retries   int
		wantPosts int32
		wantSlept []time.Duration
		wantCode  int // 0 = admitted
	}{
		{"admitted after two waits", 2, 3, 3, []time.Duration{7 * time.Second, 7 * time.Second}, 0},
		{"gives up after exactly -retries", 5, 2, 3, []time.Duration{7 * time.Second, 7 * time.Second}, http.StatusTooManyRequests},
		{"no retries asked", 1, 0, 1, nil, http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var posts atomic.Int32
			c, slept := newTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := posts.Add(1)
				if r.Header.Get(serve.TenantHeader) != "alice" || r.Header.Get(obs.TraceparentHeader) != tp {
					t.Errorf("attempt %d lost its headers: tenant %q traceparent %q",
						n, r.Header.Get(serve.TenantHeader), r.Header.Get(obs.TraceparentHeader))
				}
				if int(n) <= tc.full {
					w.Header().Set("Retry-After", "7")
					serve.APIError(w, http.StatusTooManyRequests, "queue full (4/4)")
					return
				}
				serve.WriteJSON(w, http.StatusAccepted, serve.Manifest{ID: "abc", State: serve.StateQueued})
			}))
			var announced int
			m, err := c.Submit(context.Background(), serve.JobSpec{Profile: "OR1200"}, SubmitOptions{
				Retries: tc.retries, Tenant: "alice", Traceparent: tp,
				OnRetry: func(int, time.Duration) { announced++ },
			})
			if posts.Load() != tc.wantPosts {
				t.Errorf("%d POSTs, want %d", posts.Load(), tc.wantPosts)
			}
			if fmt.Sprint(*slept) != fmt.Sprint(tc.wantSlept) || announced != len(tc.wantSlept) {
				t.Errorf("slept %v (announced %d), want %v", *slept, announced, tc.wantSlept)
			}
			if tc.wantCode == 0 {
				if err != nil || m.ID != "abc" {
					t.Fatalf("Submit = %+v, %v", m, err)
				}
				return
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != tc.wantCode || se.RetryAfter != 7*time.Second {
				t.Fatalf("err = %v, want a %d StatusError carrying Retry-After", err, tc.wantCode)
			}
		})
	}
}

func TestStatusErrorSurfacesBody(t *testing.T) {
	c, _ := newTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/jobs/plain" {
			http.Error(w, "upstream exploded", http.StatusBadGateway)
			return
		}
		serve.APIError(w, http.StatusConflict, "job %s is running, not done", "j1")
	}))
	_, err := c.Result(context.Background(), "j1")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || se.Message != "job j1 is running, not done" || se.RetryAfter >= 0 {
		t.Fatalf("JSON error body: %#v", err)
	}
	if !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "not done") {
		t.Fatalf("Error() = %q", err)
	}
	_, err = c.Job(context.Background(), "plain")
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway || se.Message != "upstream exploded" {
		t.Fatalf("plain error body: %#v", err)
	}
}

// sse writes events the way serve's hub writer does.
func sse(w http.ResponseWriter, chunks ...string) {
	w.Header().Set("Content-Type", "text/event-stream")
	for _, c := range chunks {
		fmt.Fprint(w, c)
		w.(http.Flusher).Flush()
	}
}

func frame(seq int, typ, extra string) string {
	return fmt.Sprintf("event: %s\ndata: {\"seq\":%d,\"type\":%q%s}\n\n", typ, seq, typ, extra)
}

func TestEventsReader(t *testing.T) {
	long := strings.Repeat("x", 200<<10) // one data line well past 64 KB
	c, _ := newTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/v1/jobs/ok/events":
			sse(w,
				// three events in one chunk, the last one split across chunks
				frame(1, "state", `,"state":"running"`)+frame(2, "stage", `,"stage":"gp","iters":7`)+"event: log\nda",
				"ta: {\"seq\":3,\"type\":\"log\",\"line\":\""+long+"\"}\n\n",
				": comment\ndata: not json\n\n",
				frame(9, "state", `,"state":"done"`), // Seq gap: 4..8 were dropped server-side
			)
		case "/api/v1/jobs/cut/events":
			sse(w, frame(1, "state", `,"state":"running"`), frame(2, "sample", `,"series":"place.hpwl","value":3.5`))
		case "/api/v1/jobs/hang/events":
			sse(w, frame(1, "state", `,"state":"running"`))
			<-r.Context().Done()
		}
	}))
	ctx := context.Background()

	var got []serve.Event
	if err := c.JobEvents(ctx, "ok", func(e serve.Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0].State != serve.StateRunning || got[1].Stage != "gp" || got[1].Iters != 7 ||
		got[2].Line != long || got[3].Seq != 9 || got[3].State != serve.StateDone {
		t.Fatalf("decoded %d events: seqs %v", len(got), seqs(got))
	}

	// A stream that ends without a terminal event is not an error: the
	// caller sees the last state it got and decides.
	got = nil
	if err := c.JobEvents(ctx, "cut", func(e serve.Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Series != "place.hpwl" || got[1].Value != 3.5 {
		t.Fatalf("cut stream: %+v", got)
	}

	// The callback's error stops the stream and comes back.
	stop := errors.New("enough")
	if err := c.JobEvents(ctx, "ok", func(serve.Event) error { return stop }); err != stop {
		t.Fatalf("callback error: %v", err)
	}

	// Cancellation ends a silent stream with the context's cause.
	cctx, cancel := context.WithCancelCause(ctx)
	why := errors.New("watcher went away")
	err := c.JobEvents(cctx, "hang", func(serve.Event) error { cancel(why); return nil })
	if !errors.Is(err, why) {
		t.Fatalf("canceled stream: %v", err)
	}
}

func seqs(es []serve.Event) []int {
	var out []int
	for _, e := range es {
		out = append(out, e.Seq)
	}
	return out
}

func TestWaitTerminal(t *testing.T) {
	var polls atomic.Int32
	c, slept := newTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := serve.Manifest{ID: "j", State: serve.StateRunning}
		if r.URL.Path == "/api/v1/jobs/finishes" && polls.Add(1) >= 3 {
			m.State, m.Error = serve.StateFailed, "boom"
		}
		serve.WriteJSON(w, http.StatusOK, m)
	}))
	m, err := c.WaitTerminal(context.Background(), "finishes", time.Second, time.Minute)
	if err != nil || m.State != serve.StateFailed || m.Error != "boom" || len(*slept) != 2 {
		t.Fatalf("WaitTerminal = %+v, %v after %d sleeps", m, err, len(*slept))
	}
	_, err = c.WaitTerminal(context.Background(), "never", time.Second, 0)
	if err == nil || !strings.Contains(err.Error(), "still running after") {
		t.Fatalf("timeout: %v", err)
	}
}

func TestDownloadIsByteExact(t *testing.T) {
	payload := bytes.Repeat([]byte{0, 1, 2, 0xff, '\n', '\r'}, 50_000)
	c, _ := newTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/jobs/j/artifacts/placed.pl" {
			serve.APIError(w, http.StatusNotFound, "job j has no artifact")
			return
		}
		w.Write(payload)
	}))
	dest := filepath.Join(t.TempDir(), "out.pl")
	n, err := c.Download(context.Background(), "j", "placed.pl", dest)
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("Download = %d, %v", n, err)
	}
	if got, _ := os.ReadFile(dest); !bytes.Equal(got, payload) {
		t.Fatal("downloaded bytes differ")
	}
	if mem, err := c.Artifact(context.Background(), "j", "placed.pl"); err != nil || !bytes.Equal(mem, payload) {
		t.Fatalf("Artifact: %v", err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := c.Download(context.Background(), "j", "nope", missing); err == nil {
		t.Fatal("missing artifact downloaded")
	}
	if _, err := os.Stat(missing); err == nil {
		t.Fatal("a failed download left a file behind")
	}
}
