// Command pufferctl is the client for the pufferd placement job daemon.
//
// Usage:
//
//	pufferctl [-addr http://127.0.0.1:8080] <command> [args]
//
// Commands:
//
//	submit   submit a job (synthetic profile or Bookshelf upload); -watch streams it
//	status   print a job's durable manifest
//	watch    stream a job's progress (SSE) until it finishes
//	result   print a finished job's result summary
//	artifact download a spooled artifact (report.json, trace.json, …)
//	cancel   cancel a queued or running job
//	list     list all jobs the daemon knows
//	wait     poll until a job reaches a terminal state
//	session  interactive ECO sessions: open | delta | status | watch | close | list
//	top      render the daemon's operational snapshot (/api/v1/ops)
//
// submit -kind explore runs Algorithm 3's strategy exploration as a job;
// the tuned strategy is its strategy.json artifact. submit -tenant names
// the fair-share queue lane the job waits in.
//
// A full queue answers 429 with a Retry-After hint; submit reports it and
// exits non-zero rather than waiting.
//
// submit -trace out.json starts a client span, propagates its W3C
// traceparent to the daemon, waits for the job, and merges the client and
// daemon Chrome traces into one Perfetto-loadable file whose spans — HTTP
// handling, queue wait, pipeline stages, place.gp shards — share a single
// trace ID.
//
// The daemon address can also come from the PUFFERD_ADDR environment
// variable. Exit status is non-zero when the addressed job failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"puffer/internal/client"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pufferctl:", err)
		os.Exit(1)
	}
}

// run executes one command line, writing its report to stdout and its
// notes (and flag usage) to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pufferctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", envOr("PUFFERD_ADDR", "http://127.0.0.1:8080"), "pufferd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return errors.New("usage: pufferctl [-addr URL] {submit|status|watch|result|artifact|cancel|list|wait|session|top} ...")
	}
	c := &cli{Client: client.New(*addr, nil), ctx: context.Background(), out: stdout, errOut: stderr}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		err = c.submit(rest)
	case "status":
		err = c.print(rest, "status <id>", http.MethodGet, "/api/v1/jobs/%s")
	case "result":
		err = c.print(rest, "result <id>", http.MethodGet, "/api/v1/jobs/%s/result")
	case "watch":
		err = c.watch(rest, "watch <id>", "/api/v1/jobs/%s/events")
	case "artifact":
		err = c.artifact(rest)
	case "cancel":
		err = c.print(rest, "cancel <id>", http.MethodPost, "/api/v1/jobs/%s/cancel")
	case "list":
		err = c.list()
	case "wait":
		err = c.wait(rest)
	case "session":
		err = c.session(rest)
	case "top":
		err = c.top()
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	return err
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cli renders internal/client's calls for a terminal.
type cli struct {
	*client.Client
	ctx         context.Context
	out, errOut io.Writer
}

// flags starts a subcommand's flag set; usage and parse errors go to
// stderr.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	return fs
}

// runFlags are the flags submit and session open share.
type runFlags struct {
	profile, aux, strategy *string
	scale, iters, workers  *int
	seed                   *int64
}

func addRunFlags(fs *flag.FlagSet) runFlags {
	return runFlags{
		profile:  fs.String("profile", "", "synthetic benchmark profile name"),
		scale:    fs.Int("scale", 800, "profile scale divisor"),
		seed:     fs.Int64("seed", 1, "random seed"),
		aux:      fs.String("aux", "", "Bookshelf .aux file to upload (with its sibling files)"),
		iters:    fs.Int("iters", 0, "max global placement iterations (0 = default)"),
		workers:  fs.Int("workers", 0, "cap parallelism (0 = GOMAXPROCS; explore jobs: relevance groups at once)"),
		strategy: fs.String("strategy", "", "JSON strategy file (puffer explore -out format)"),
	}
}

// spec starts the submission document from the shared flags.
func (f runFlags) spec() (map[string]any, error) {
	spec := map[string]any{"scale": *f.scale, "seed": *f.seed}
	if *f.profile != "" {
		spec["profile"] = *f.profile
	}
	if *f.aux != "" {
		files, err := inlineBookshelf(*f.aux)
		if err != nil {
			return nil, err
		}
		spec["bookshelf"] = files
	}
	if *f.iters > 0 {
		spec["max_iters"] = *f.iters
	}
	if *f.workers > 0 {
		spec["workers"] = *f.workers
	}
	if *f.strategy != "" {
		data, err := os.ReadFile(*f.strategy)
		if err != nil {
			return nil, err
		}
		spec["strategy"] = json.RawMessage(data)
	}
	return spec, nil
}

func (c *cli) submit(args []string) error {
	fs := c.flags("submit")
	df := addRunFlags(fs)
	var (
		kind    = fs.String("kind", "place", "job kind: place | explore")
		route   = fs.Bool("route", false, "append the evaluation-routing stage")
		budget  = fs.Int("budget", 0, "exploration trial budget (explore jobs)")
		timeout = fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
		watch   = fs.Bool("watch", false, "stream progress until the job finishes")
		trace   = fs.String("trace", "", "wait for the job and write a merged client+daemon Chrome trace here")
		tenant  = fs.String("tenant", "", "tenant name for fair-share scheduling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := df.spec()
	if err != nil {
		return err
	}
	spec["kind"] = *kind
	if *route {
		spec["route"] = true
	}
	if *budget > 0 {
		spec["budget"] = *budget
	}
	if *timeout > 0 {
		spec["timeout_sec"] = timeout.Seconds()
	}

	// With -trace, this process becomes the root of the distributed trace:
	// the submit span's traceparent rides the POST, the daemon roots its
	// serve.job span under it, and after the job finishes the two Chrome
	// traces merge into one tree on one time axis.
	var (
		tracer     *obs.Tracer
		clientSpan *obs.Span
	)
	o := client.SubmitOptions{Tenant: *tenant}
	if *trace != "" {
		tracer = obs.NewTracer()
		clientSpan = tracer.StartSpan("client.submit")
		o.Traceparent = clientSpan.TraceContext().Traceparent()
	}
	postStart := time.Now()
	m, err := c.Submit(c.ctx, spec, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "job %s %s\n", m.ID, m.State)
	clientSpan.RecordChild("client.request", postStart, time.Since(postStart))
	clientSpan.SetArg("job", m.ID)

	var watchErr error
	waitStart := time.Now()
	if *watch {
		watchErr = c.stream("/api/v1/jobs/"+m.ID+"/events", m.ID)
	}
	if *trace == "" {
		return watchErr
	}
	final, err := c.WaitTerminal(c.ctx, m.ID, 500*time.Millisecond, 15*time.Minute)
	if err != nil {
		return err
	}
	clientSpan.RecordChild("client.wait", waitStart, time.Since(waitStart))
	if err := c.writeMergedTrace(tracer, clientSpan, m.ID, *trace); err != nil {
		return err
	}
	if watchErr != nil {
		return watchErr
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", m.ID, final.State, final.Error)
	}
	return nil
}

// writeMergedTrace ends the client span and merges the client tracer with
// the job's spooled trace artifact into one Chrome trace file. A job that
// died before exporting a trace (canceled in queue, spool failure) still
// yields a file with the client's own spans.
func (c *cli) writeMergedTrace(tracer *obs.Tracer, clientSpan *obs.Span, id, dest string) error {
	clientSpan.End()
	var clientBuf bytes.Buffer
	if err := tracer.WriteJSON(&clientBuf); err != nil {
		return err
	}
	parts := []obs.TracePart{{Process: "pufferctl", Data: clientBuf.Bytes()}}
	server, err := c.Artifact(c.ctx, id, "trace.json")
	if err != nil {
		fmt.Fprintf(c.errOut, "pufferctl: no daemon trace for %s (%v); writing client spans only\n", id, err)
	} else {
		parts = append(parts, obs.TracePart{Process: "pufferd", Data: server})
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	merr := obs.MergeChromeTraces(f, parts...)
	if cerr := f.Close(); merr == nil {
		merr = cerr
	}
	if merr != nil {
		return merr
	}
	fmt.Fprintf(c.out, "trace: %s (%d processes, trace_id %s)\n", dest, len(parts), tracer.TraceID())
	return nil
}

// inlineBookshelf reads an .aux file and every sibling file it references,
// returning the filename → content map the submit API expects.
func inlineBookshelf(auxPath string) (map[string]string, error) {
	auxData, err := os.ReadFile(auxPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(auxPath)
	files := map[string]string{filepath.Base(auxPath): string(auxData)}
	for _, line := range strings.Split(string(auxData), "\n") {
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		for _, tok := range strings.Fields(line) {
			if filepath.Ext(tok) == "" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, filepath.Base(tok)))
			if err != nil {
				return nil, fmt.Errorf("aux references %s: %w", tok, err)
			}
			files[filepath.Base(tok)] = string(data)
		}
	}
	return files, nil
}

// print sends one bodiless request for the <id> argument and copies the
// answer document to stdout.
func (c *cli) print(args []string, usage, method, pathFmt string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pufferctl %s", usage)
	}
	data, err := c.Call(c.ctx, method, fmt.Sprintf(pathFmt, args[0]), nil)
	if err != nil {
		return err
	}
	_, err = c.out.Write(data)
	return err
}

func (c *cli) list() error {
	rows, err := c.Jobs(c.ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %-8s %-16s %-9s %-9s %3s  %s\n", "ID", "KIND", "DESIGN", "STATE", "STAGE", "TRY", "HPWL/ERROR")
	for _, r := range rows {
		detail := ""
		if r.HPWL > 0 {
			detail = fmt.Sprintf("%.0f", r.HPWL)
		}
		if r.Error != "" {
			detail = r.Error
		}
		fmt.Fprintf(c.out, "%-14s %-8s %-16s %-9s %-9s %3d  %s\n",
			r.ID, r.Kind, r.Design, r.State, r.Stage, r.Attempts, detail)
	}
	return nil
}

func (c *cli) artifact(args []string) error {
	fs := c.flags("artifact")
	out := fs.String("o", "", "output path (default: the artifact name)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("usage: pufferctl artifact [-o path] <id> <name>")
	}
	dest := *out
	if dest == "" {
		dest = rest[1]
	}
	n, err := c.Download(c.ctx, rest[0], rest[1], dest)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s: %d bytes\n", dest, n)
	return nil
}

func (c *cli) watch(args []string, usage, pathFmt string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pufferctl %s", usage)
	}
	return c.stream(fmt.Sprintf(pathFmt, args[0]), args[0])
}

// stream consumes an SSE progress stream (job or session), rendering
// progress lines until the stream ends; the final state decides the error.
func (c *cli) stream(path, id string) error {
	var final serve.Event
	err := c.Events(c.ctx, path, func(e serve.Event) error {
		switch e.Type {
		case "state":
			fmt.Fprintf(c.out, "state: %s %s\n", e.State, e.Error)
			final = e
		case "stage":
			fmt.Fprintf(c.out, "stage %s %s (iters=%d wall=%.0fms)\n", e.Stage, e.StageStatus, e.Iters, e.WallMS)
		case "sample":
			fmt.Fprintf(c.out, "  %s[%d] = %g\n", e.Series, e.Step, e.Value)
		case "log":
			fmt.Fprintln(c.out, e.Line)
		}
		return nil
	})
	if err != nil {
		return err
	}
	switch final.State {
	case "done", "open", "closed", "":
		return nil
	case "parked", "queued":
		fmt.Fprintln(c.out, "interrupted; it will resume when the daemon restarts")
		return nil
	default:
		return fmt.Errorf("%s %s: %s", id, final.State, final.Error)
	}
}

// session dispatches the interactive ECO session subcommands.
func (c *cli) session(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pufferctl session {open|delta|status|watch|close|list} ...")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "open":
		return c.sessionOpen(rest)
	case "delta":
		return c.sessionDelta(rest)
	case "status":
		return c.print(rest, "session status <id>", http.MethodGet, "/api/v1/sessions/%s")
	case "watch":
		return c.watch(rest, "session watch <id>", "/api/v1/sessions/%s/events")
	case "close":
		return c.print(rest, "session close <id>", http.MethodDelete, "/api/v1/sessions/%s")
	case "list":
		return c.sessionList()
	default:
		return fmt.Errorf("unknown session command %q", cmd)
	}
}

// sessionOpen opens an ECO session and waits for its base placement
// before returning the session ID on stdout.
func (c *cli) sessionOpen(args []string) error {
	fs := c.flags("session open")
	df := addRunFlags(fs)
	timeout := fs.Duration("timeout", 10*time.Minute, "give up waiting for the base placement after this long")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := df.spec()
	if err != nil {
		return err
	}
	body, _ := json.Marshal(spec)
	var m serve.SessionManifest
	if err := c.JSON(c.ctx, http.MethodPost, "/api/v1/sessions", body, &m); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "session %s %s\n", m.ID, m.State)
	deadline := time.Now().Add(*timeout)
	for {
		if err := c.JSON(c.ctx, http.MethodGet, "/api/v1/sessions/"+m.ID, nil, &m); err != nil {
			return err
		}
		switch m.State {
		case serve.SessionOpen:
			fmt.Fprintf(c.out, "session %s open hpwl=%.0f\n", m.ID, m.LastHPWL)
			return nil
		case serve.SessionFailed, serve.SessionClosed:
			return fmt.Errorf("session %s %s: %s", m.ID, m.State, m.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s still %s after %s", m.ID, m.State, *timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// sessionDelta applies a delta document (a file path, or "-" for stdin)
// and prints the new placement summary.
func (c *cli) sessionDelta(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pufferctl session delta <id> <delta.json|->")
	}
	id, src := args[0], args[1]
	var (
		data []byte
		err  error
	)
	if src == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(src)
	}
	if err != nil {
		return err
	}
	var dr struct {
		Deltas     int     `json:"deltas"`
		HPWL       float64 `json:"hpwl"`
		GPIters    int     `json:"gp_iters"`
		RuntimeMS  float64 `json:"runtime_ms"`
		Rehydrated bool    `json:"rehydrated"`
	}
	if err := c.JSON(c.ctx, http.MethodPost, "/api/v1/sessions/"+id+"/deltas", data, &dr); err != nil {
		return err
	}
	note := ""
	if dr.Rehydrated {
		note = " (rehydrated)"
	}
	fmt.Fprintf(c.out, "delta %d applied: hpwl=%.0f gp_iters=%d %.0fms%s\n",
		dr.Deltas, dr.HPWL, dr.GPIters, dr.RuntimeMS, note)
	return nil
}

func (c *cli) sessionList() error {
	var rows []struct {
		ID       string  `json:"id"`
		Design   string  `json:"design"`
		State    string  `json:"state"`
		Deltas   int     `json:"deltas"`
		LastHPWL float64 `json:"last_hpwl"`
		Warm     bool    `json:"warm"`
		Error    string  `json:"error"`
	}
	if err := c.JSON(c.ctx, http.MethodGet, "/api/v1/sessions", nil, &rows); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %-16s %-8s %6s %5s  %s\n", "ID", "DESIGN", "STATE", "DELTAS", "WARM", "HPWL/ERROR")
	for _, r := range rows {
		detail := ""
		if r.LastHPWL > 0 {
			detail = fmt.Sprintf("%.0f", r.LastHPWL)
		}
		if r.Error != "" {
			detail = r.Error
		}
		warm := "no"
		if r.Warm {
			warm = "yes"
		}
		fmt.Fprintf(c.out, "%-14s %-16s %-8s %6d %5s  %s\n", r.ID, r.Design, r.State, r.Deltas, warm, detail)
	}
	return nil
}

// top renders the daemon's one-call operational picture: lifecycle, queue
// pressure, latency digests and live SLO status.
func (c *cli) top() error {
	ops, err := c.Ops(c.ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "pufferd %s  up %s  queue %d/%d  workers %d  active %d  sessions %d (%d warm)\n",
		ops.Status, time.Duration(ops.UptimeSeconds*float64(time.Second)).Round(time.Second),
		ops.QueueDepth, ops.QueueCap, ops.Workers, ops.ActiveJobs,
		ops.Sessions["tracked"], ops.Sessions["warm"])

	if len(ops.Histograms) > 0 {
		fmt.Fprintf(c.out, "\n%-36s %8s %9s %9s %9s %9s\n", "LATENCY", "COUNT", "MEAN", "P50", "P95", "P99")
		for _, name := range sortedKeys(ops.Histograms) {
			h := ops.Histograms[name]
			fmt.Fprintf(c.out, "%-36s %8d %9s %9s %9s %9s\n", name, h.Count,
				fmtSecs(h.Mean), fmtSecs(h.P50), fmtSecs(h.P95), fmtSecs(h.P99))
		}
	}
	if len(ops.SLO) > 0 {
		fmt.Fprintf(c.out, "\n%-20s %6s %9s %9s %8s  %s\n", "SLO", "Q", "VALUE", "BOUND", "WINDOW", "STATUS")
		for _, o := range ops.SLO {
			status := "ok"
			switch {
			case !o.Evaluable:
				status = "no data"
			case o.Burning:
				status = "BURNING"
			case !o.OK:
				status = "failing"
			}
			fmt.Fprintf(c.out, "%-20s %6.2f %9s %9s %8d  %s\n",
				o.Name, o.Quantile, fmtSecs(o.Value), fmtSecs(o.Bound), o.Window, status)
		}
	}
	if len(ops.Counters) > 0 {
		fmt.Fprintf(c.out, "\n%-36s %8s\n", "COUNTER", "VALUE")
		for _, name := range sortedKeys(ops.Counters) {
			fmt.Fprintf(c.out, "%-36s %8d\n", name, ops.Counters[name])
		}
	}
	return nil
}

// fmtSecs renders a duration-in-seconds compactly for the top tables.
func fmtSecs(s float64) string {
	if s == 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (c *cli) wait(args []string) error {
	fs := c.flags("wait")
	poll := fs.Duration("poll", 2*time.Second, "poll interval")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return fmt.Errorf("usage: pufferctl wait [-poll d] [-timeout d] <id>")
	}
	m, err := c.WaitTerminal(c.ctx, rest[0], *poll, *timeout)
	if err != nil {
		return err
	}
	if m.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", m.ID, m.State, m.Error)
	}
	fmt.Fprintln(c.out, "done")
	return nil
}
