// Package client is the one HTTP client of the pufferd job API. cmd/pufferctl
// renders its results for a terminal; the fleet coordinator's remote backend
// uses the same calls to dispatch to, watch and mirror from its workers, and
// workers announce themselves through it. It owns the only server-sent-event
// reader in the repo.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"puffer/internal/obs"
	"puffer/internal/serve"
)

// Client talks to one pufferd (worker, standalone daemon or coordinator).
type Client struct {
	base  string
	unary *http.Client
	// stream shares unary's transport without its overall timeout: event
	// streams and artifact bodies outlive any per-call deadline.
	stream *http.Client
	sleep  func(context.Context, time.Duration) error
}

// New returns a client for the daemon at base. hc serves the short calls
// (nil = http.DefaultClient); streaming calls reuse its transport.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		base:   strings.TrimSuffix(base, "/"),
		unary:  hc,
		stream: &http.Client{Transport: hc.Transport},
		sleep:  sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// StatusError is a non-2xx answer: the status, the server's JSON "error"
// message (or the raw body when it is not the uniform error document), and
// the Retry-After hint when the server sent one (-1 otherwise).
type StatusError struct {
	Code       int
	Status     string
	Message    string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.RetryAfter >= 0 {
		return fmt.Sprintf("%s (Retry-After: %ds): %s", e.Status, int(e.RetryAfter.Seconds()), e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Status, e.Message)
}

func statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &StatusError{Code: resp.StatusCode, Status: resp.Status,
		Message: strings.TrimSpace(string(body)), RetryAfter: -1}
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		e.Message = doc.Error
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs >= 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// do sends one request and returns the 2xx response; anything else comes
// back as a *StatusError with the body consumed and closed.
func (c *Client) do(ctx context.Context, hc *http.Client, method, path string, body []byte, hdr map[string]string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, statusError(resp)
	}
	return resp, nil
}

// Call sends method path with an optional JSON body and returns the 2xx
// response body.
func (c *Client) Call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.do(ctx, c.unary, method, path, body, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// JSON is Call with the response decoded into v.
func (c *Client) JSON(ctx context.Context, method, path string, body []byte, v any) error {
	data, err := c.Call(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %s %s: %w", method, path, err)
	}
	return nil
}

// SubmitOptions are the per-submission extras.
type SubmitOptions struct {
	// Retries is how many times a 429 is retried after sleeping out the
	// server's Retry-After hint (2s when absent, never under 1s).
	Retries int
	// Tenant and Traceparent ride every attempt as X-Puffer-Tenant and the
	// W3C traceparent header.
	Tenant      string
	Traceparent string
	// OnRetry, when set, is told about each backpressure wait.
	OnRetry func(attempt int, wait time.Duration)
}

// Submit posts a job spec (anything that marshals to the JobSpec document)
// and returns the admitted manifest.
func (c *Client) Submit(ctx context.Context, spec any, o SubmitOptions) (*serve.Manifest, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	hdr := map[string]string{serve.TenantHeader: o.Tenant, obs.TraceparentHeader: o.Traceparent}
	for attempt := 0; ; attempt++ {
		resp, err := c.do(ctx, c.unary, http.MethodPost, "/api/v1/jobs", body, hdr)
		if err == nil {
			defer resp.Body.Close()
			m := &serve.Manifest{}
			if err := json.NewDecoder(resp.Body).Decode(m); err != nil {
				return nil, fmt.Errorf("decode response: %w", err)
			}
			return m, nil
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || attempt >= o.Retries {
			return nil, err
		}
		wait := se.RetryAfter
		if wait < 0 {
			wait = 2 * time.Second
		}
		if wait < time.Second {
			wait = time.Second
		}
		if o.OnRetry != nil {
			o.OnRetry(attempt+1, wait)
		}
		if err := c.sleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

// Job fetches a job's durable manifest.
func (c *Client) Job(ctx context.Context, id string) (*serve.Manifest, error) {
	m := &serve.Manifest{}
	return m, c.JSON(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, m)
}

// Jobs lists the daemon's jobs, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]serve.JobSummary, error) {
	var rows []serve.JobSummary
	return rows, c.JSON(ctx, http.MethodGet, "/api/v1/jobs", nil, &rows)
}

// Result fetches a done job's result (a 409 StatusError until then).
func (c *Client) Result(ctx context.Context, id string) (*serve.JobResult, error) {
	r := &serve.JobResult{}
	return r, c.JSON(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/result", nil, r)
}

// Cancel requests cancellation and returns the server's answer document.
func (c *Client) Cancel(ctx context.Context, id string) ([]byte, error) {
	return c.Call(ctx, http.MethodPost, "/api/v1/jobs/"+id+"/cancel", nil)
}

// Artifact downloads one spooled artifact into memory.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	resp, err := c.do(ctx, c.stream, http.MethodGet, "/api/v1/jobs/"+id+"/artifacts/"+name, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Download streams one artifact to the file dest and returns its size.
func (c *Client) Download(ctx context.Context, id, name, dest string) (int64, error) {
	resp, err := c.do(ctx, c.stream, http.MethodGet, "/api/v1/jobs/"+id+"/artifacts/"+name, nil, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	f, err := os.Create(dest)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// maxEventBytes bounds one SSE data line (an event is a few hundred bytes;
// a log line quoting a parser error can run to kilobytes).
const maxEventBytes = 4 << 20

// Events reads the server-sent-event stream at path (a job's or a
// session's /events), calling fn for every event in order. It returns nil
// when the server ends the stream — which, without a terminal state event
// having been seen, means the daemon went away mid-job — fn's error if it
// returns one, or the context's cause when ctx ends first. Undecodable
// data lines are skipped; Seq gaps (the server drops events for slow
// subscribers) are the caller's to notice.
func (c *Client) Events(ctx context.Context, path string, fn func(serve.Event) error) error {
	resp, err := c.do(ctx, c.stream, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxEventBytes)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var e serve.Event
		if json.Unmarshal(data, &e) != nil {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	return nil
}

// JobEvents is Events on a job's stream.
func (c *Client) JobEvents(ctx context.Context, id string, fn func(serve.Event) error) error {
	return c.Events(ctx, "/api/v1/jobs/"+id+"/events", fn)
}

// WaitTerminal polls the job's manifest every poll until it is done, failed
// or canceled, giving up after timeout.
func (c *Client) WaitTerminal(ctx context.Context, id string, poll, timeout time.Duration) (*serve.Manifest, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if m.State.Terminal() {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %s", id, m.State, timeout)
		}
		if err := c.sleep(ctx, poll); err != nil {
			return nil, err
		}
	}
}

// HistogramDigest is one latency histogram as /api/v1/ops reports it.
type HistogramDigest struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Ops mirrors the /api/v1/ops document. Role, Nodes and Cache are set only
// by a coordinator.
type Ops struct {
	Status        string                     `json:"status"`
	Role          string                     `json:"role"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	QueueDepth    int                        `json:"queue_depth"`
	QueueCap      int                        `json:"queue_cap"`
	Workers       int                        `json:"workers"`
	ActiveJobs    int                        `json:"active_jobs"`
	Sessions      map[string]int             `json:"sessions"`
	Counters      map[string]int64           `json:"counters"`
	Gauges        map[string]float64         `json:"gauges"`
	Histograms    map[string]HistogramDigest `json:"histograms"`
	SLO           []obs.ObjectiveStatus      `json:"slo"`
	SLOHealthy    bool                       `json:"slo_healthy"`
	Nodes         []NodeRow                  `json:"nodes"`
	Cache         map[string]int64           `json:"cache"`
}

// NodeRow is one worker in a coordinator's fleet table.
type NodeRow struct {
	ID           string      `json:"id"`
	Addr         string      `json:"addr"`
	Engine       string      `json:"engine"`
	Live         bool        `json:"live"`
	HeartbeatAge float64     `json:"heartbeat_age_seconds"`
	Jobs         int         `json:"jobs"`
	Stats        serve.Stats `json:"stats"`
}

// Ops fetches the daemon's operational snapshot.
func (c *Client) Ops(ctx context.Context) (*Ops, error) {
	o := &Ops{}
	return o, c.JSON(ctx, http.MethodGet, "/api/v1/ops", nil, o)
}

// Nodes fetches a coordinator's fleet table.
func (c *Client) Nodes(ctx context.Context) ([]NodeRow, error) {
	var rows []NodeRow
	return rows, c.JSON(ctx, http.MethodGet, "/api/v1/nodes", nil, &rows)
}

// Announce posts a worker's node manifest (registration and heartbeat).
func (c *Client) Announce(ctx context.Context, manifest any) error {
	body, err := json.Marshal(manifest)
	if err != nil {
		return err
	}
	_, err = c.Call(ctx, http.MethodPost, "/api/v1/nodes", body)
	return err
}
