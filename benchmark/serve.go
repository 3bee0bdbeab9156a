package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"puffer/internal/obs"
	"puffer/internal/serve"
)

// Service workload sizing. Two closed-loop clients drive one
// `pufferd -workers 2`; every job pins workers: 1, so the daemon's two job
// workers fill the two cores.
const (
	serveClients    = 2
	serveDaemonJobs = 2
	// serveJobsPerSecond sizes the run from -seconds (≈15 jobs/s complete on
	// the authoring machine). A fixed count keeps the seeded job order — and
	// so the class mix under the percentiles — the same on every machine.
	serveJobsPerSecond = 12
	// serveMaxIters caps GP iterations of every job. Uncapped, placement is
	// ≈85 % of a job's wall and varies 2× between designs of one size, so the
	// workload would measure the placer (and the luck of the seed's design
	// pool), not the service around it.
	serveMaxIters    = 100
	serveUploadShare = 0.30
	servePoolSize    = 8 // distinct profile seeds, and distinct uploads
	serveJobTimeout  = 30 * time.Second
	// serveSetupReps boots that many daemons; setup_s is the median.
	serveSetupReps = 5
)

func serveJobCount(seconds float64) int {
	n := int(seconds * serveJobsPerSecond)
	if n < 16 {
		n = 16
	}
	return n
}

// daemon is one pufferd subprocess on an ephemeral loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	bootMS float64
	log    *os.File
	http   *http.Client
}

// startDaemon boots pufferd on a fresh spool under dir and waits until
// /readyz answers 200. The caller must stop it.
func (h *harness) startDaemon(ctx context.Context, dir string) (*daemon, error) {
	if h.pufferd == "" {
		return nil, fmt.Errorf("no pufferd binary: run through benchmark/run.sh or pass -pufferd")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "pufferd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(h.pufferd,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-spool", filepath.Join(dir, "spool"),
		"-workers", fmt.Sprint(serveDaemonJobs), "-v=false")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start pufferd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}}
	deadline := time.Now().Add(20 * time.Second)
	for d.base == "" || !d.ready(ctx) {
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pufferd not ready after %s (see %s)", time.Since(t0).Round(time.Millisecond), logf.Name())
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
				continue
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.bootMS = time.Since(t0).Seconds() * 1e3
	return d, nil
}

func (d *daemon) ready(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop terminates the daemon and waits until the process has ended:
// SIGTERM (graceful drain), then SIGKILL if it lingers.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { d.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-done
		}
	}
	d.log.Close()
}

// getJSON fetches path and decodes the 200 response into v.
func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveInputs is everything the clients submit, generated from the seed.
type serveInputs struct {
	// pre-encoded job specs
	profiles [][]byte // servePoolSize profile jobs, distinct seeds
	uploads  [][]byte // servePoolSize Bookshelf uploads
	uploadKB float64  // mean upload body size
}

// makeServeInputs generates the job pool: profile jobs name a synthetic
// design the daemon generates itself (so its design cache can hit on a
// repeated seed), upload jobs inline a Bookshelf design written here.
func makeServeInputs(seed int64, dir string) (*serveInputs, error) {
	in := &serveInputs{}
	for k := 0; k < servePoolSize; k++ {
		spec := serve.JobSpec{Profile: designServeProfile.Profile, Scale: designServeProfile.Scale,
			Seed: subSeed(seed, k+1), MaxIters: serveMaxIters, Workers: 1, Route: true}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		in.profiles = append(in.profiles, body)

		d, err := designServeUpload.generate(subSeed(seed, 100+k))
		if err != nil {
			return nil, err
		}
		files, err := bookshelfFiles(d, filepath.Join(dir, fmt.Sprintf("upload%d", k)), fmt.Sprintf("up%d", k))
		if err != nil {
			return nil, err
		}
		body, err = json.Marshal(serve.JobSpec{Bookshelf: files, MaxIters: serveMaxIters, Workers: 1, Route: true})
		if err != nil {
			return nil, err
		}
		in.uploads = append(in.uploads, body)
		in.uploadKB += float64(len(body)) / 1024 / servePoolSize
	}
	return in, nil
}

// order returns the seeded fixed sequence of n jobs: exactly 30 % uploads
// (so the class mix under the percentiles and means is the same for every
// seed), each drawn uniformly from its pool, in seeded random order.
func (in *serveInputs) order(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	nUpload := int(serveUploadShare*float64(n) + 0.5)
	out := make([][]byte, n)
	for i := range out {
		if i < nUpload {
			out[i] = in.uploads[rng.Intn(len(in.uploads))]
		} else {
			out[i] = in.profiles[rng.Intn(len(in.profiles))]
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jobRecord is what a client observed of one job.
type jobRecord struct {
	id  string
	err error

	start                               time.Time // submit sent
	submitS, resultS, artifactS, totalS float64
	terminalAt                          time.Time // terminal SSE event seen
	artifactBytes                       int64
	notifyLost                          bool // stream ended without the terminal event
	result                              serve.JobResult
	dir                                 string // downloaded placed.* set
	manifest                            *serve.Manifest
}

// runJob drives one job end to end, the way `pufferctl submit -watch`
// does: POST the spec, follow the SSE stream to a terminal state, GET the
// result, download every placed.* artifact to disk. tr may be nil.
func (d *daemon) runJob(ctx context.Context, spec []byte, dir string, tr *obs.Tracer) *jobRecord {
	ctx, cancel := context.WithTimeout(ctx, serveJobTimeout)
	defer cancel()
	rec := &jobRecord{start: time.Now(), dir: dir}
	root := tr.StartSpanAt("job", rec.start)
	defer func() {
		rec.totalS = time.Since(rec.start).Seconds()
		root.End()
	}()

	sp := root.Child("job.submit")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/api/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.http.Do(req)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var m serve.Manifest
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	} else {
		err = json.NewDecoder(resp.Body).Decode(&m)
	}
	resp.Body.Close()
	sp.End()
	rec.submitS = time.Since(rec.start).Seconds()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = m.ID

	sp = root.Child("job.watch")
	state, err := d.watch(ctx, m.ID)
	if errors.Is(err, errNoTerminalEvent) {
		rec.notifyLost = true
		state, err = d.pollTerminal(ctx, m.ID)
	}
	rec.terminalAt = time.Now()
	sp.End()
	if err == nil && state != serve.StateDone {
		err = fmt.Errorf("job %s ended %s", m.ID, state)
	}
	if err != nil {
		rec.err = fmt.Errorf("watch: %w", err)
		return rec
	}

	sp = root.Child("job.result")
	t0 := time.Now()
	err = d.getJSON(ctx, "/api/v1/jobs/"+m.ID+"/result", &rec.result)
	rec.resultS = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}

	sp = root.Child("job.artifacts")
	t0 = time.Now()
	for _, name := range rec.result.Artifacts {
		if !strings.HasPrefix(name, "placed.") {
			continue
		}
		n, err := d.download(ctx, m.ID, name, dir)
		if err != nil {
			rec.err = fmt.Errorf("artifact %s: %w", name, err)
			break
		}
		rec.artifactBytes += n
	}
	rec.artifactS = time.Since(t0).Seconds()
	sp.End()
	return rec
}

// errNoTerminalEvent reports an SSE stream that closed before a terminal
// state event arrived: the hub drops events for a subscriber whose buffer is
// full, and the terminal event can be among them.
var errNoTerminalEvent = errors.New("event stream ended without a terminal state")

// watch follows the job's SSE stream until a terminal state event and
// returns that state.
func (d *daemon) watch(ctx context.Context, id string) (serve.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: bad frame %q: %w", data, err)
		}
		if ev.Type == "state" && ev.State.Terminal() {
			if ev.Error != "" {
				return ev.State, fmt.Errorf("job %s: %s", ev.State, ev.Error)
			}
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errNoTerminalEvent
}

// pollTerminal is the client's fallback when the stream lost the terminal
// event: poll the manifest, as `pufferctl wait` does, until the job is in a
// terminal state.
func (d *daemon) pollTerminal(ctx context.Context, id string) (serve.JobState, error) {
	for {
		var m serve.Manifest
		if err := d.getJSON(ctx, "/api/v1/jobs/"+id, &m); err != nil {
			return "", err
		}
		if m.State.Terminal() {
			if m.Error != "" {
				return m.State, fmt.Errorf("job %s: %s", m.State, m.Error)
			}
			return m.State, nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// download streams one artifact to dir and returns its size.
func (d *daemon) download(ctx context.Context, id, name, dir string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/api/v1/jobs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s", resp.Status)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// serveSetup is one complete set-up of the service workload: inputs
// generated and serialised, a daemon booted on a temp spool and answering
// /readyz, one warm-up job through it.
func (h *harness) serveSetup(ctx context.Context, dir string) (*serveInputs, *daemon, error) {
	in, err := makeServeInputs(h.seed, filepath.Join(dir, "inputs"))
	if err != nil {
		return nil, nil, err
	}
	d, err := h.startDaemon(ctx, dir)
	if err != nil {
		return nil, nil, err
	}
	if rec := d.runJob(ctx, in.profiles[0], filepath.Join(dir, "warmup"), nil); rec.err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("warm-up job: %w", rec.err)
	}
	return in, d, nil
}

// serveOutcome is what one closed-loop service run measured.
type serveOutcome struct {
	setupS float64
	bootMS float64
	jobs   []*jobRecord // successful jobs, completion order
	loopS  float64
	ops    opsSnapshot
	in     *serveInputs
}

// opsSnapshot is the part of /api/v1/ops the benchmark reads.
type opsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
}

// serveLoop sets the service up serveSetupReps times (keeping the last
// daemon), then lets serveClients closed-loop clients work through the
// seeded order of n jobs. Every job's downloaded artifact set is verified
// after the loop, so verification never competes with the daemon for CPU.
// With tr set, clients record spans and manifests are fetched afterwards.
func (h *harness) serveLoop(ctx context.Context, res *runResult, n int, tr *obs.Tracer) (*serveOutcome, error) {
	out := &serveOutcome{}
	var (
		d      *daemon
		setups []float64
	)
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		dir := filepath.Join(h.workDir, fmt.Sprintf("serve-%d", i))
		t0 := time.Now()
		in, nd, err := h.serveSetup(ctx, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		d, out.in, out.bootMS = nd, in, nd.bootMS
	}
	defer d.stop()
	out.setupS = median(setups)

	order := out.in.order(subSeed(h.seed, 2), n)
	artDir := filepath.Join(h.workDir, "artifacts")
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
		recs []*jobRecord
	)
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(order) {
					return
				}
				rec := d.runJob(ctx, order[i], filepath.Join(artDir, fmt.Sprint(i)), tr)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.loopS = time.Since(t0).Seconds()

	for _, rec := range recs {
		err := rec.err
		if err == nil {
			err = checkArtifactSet(filepath.Join(rec.dir, "placed.aux"), rec.result.HPWL)
		}
		if err == nil {
			err = checkRouting(quality{HPWL: rec.result.HPWL, RoutedWL: rec.result.RoutedWL, HOF: rec.result.HOF, VOF: rec.result.VOF})
		}
		if err == nil && tr != nil {
			rec.manifest = &serve.Manifest{}
			err = d.getJSON(ctx, "/api/v1/jobs/"+rec.id, rec.manifest)
			if err == nil && (rec.manifest.StartedAt == nil || rec.manifest.FinishedAt == nil) {
				err = fmt.Errorf("manifest of %s lacks started_at/finished_at", rec.id)
			}
		}
		res.op(err)
		if err == nil {
			out.jobs = append(out.jobs, rec)
		}
	}
	if len(out.jobs) == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}
	if err := d.getJSON(ctx, "/api/v1/ops", &out.ops); err != nil {
		return nil, fmt.Errorf("ops: %w", err)
	}
	return out, nil
}

// runServe is the untraced serve_small_jobs run. An op is one job, timed
// from the submit being sent to the last artifact byte on disk; place_s is
// the pipeline wall the daemon reports in the job result (its runtime_ms,
// evaluation routing included).
func (h *harness) runServe(ctx context.Context) *runResult {
	res := newRunResult(wlServeSmallJobs, h.seed, h.seconds, false)
	out, err := h.serveLoop(ctx, res, serveJobCount(h.seconds), nil)
	if err != nil {
		res.fail(err)
		return res
	}
	var jobS, placeS, hpwl, wl []float64
	for _, r := range out.jobs {
		jobS = append(jobS, r.totalS)
		placeS = append(placeS, r.result.RuntimeMS/1e3)
		hpwl = append(hpwl, r.result.HPWL)
		wl = append(wl, r.result.RoutedWL)
	}
	tail, tailP := tailOf(jobS)
	res.note("ops", "%d jobs, %d clients, uploads ≈%.0f KB; op_s_tail is p%.0f", len(jobS), serveClients, out.in.uploadKB, tailP)
	h.logf("%s: %d jobs in %.2fs, p50 %.3fs p%.0f %.3fs", wlServeSmallJobs, len(jobS), out.loopS, median(jobS), tailP, tail)
	res.set("setup_s", out.setupS)
	res.set("place_s", median(placeS))
	// sorted first: completion order varies, float summation order must not
	res.set("hpwl", mean(sorted(hpwl)))
	res.set("routed_wl", mean(sorted(wl)))
	res.set("op_s_p50", median(jobS))
	res.set("op_s_tail", tail)
	res.set("ops_per_s", float64(len(jobS))/out.loopS)
	return res
}
