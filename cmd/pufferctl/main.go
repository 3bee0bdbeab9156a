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
//	cancel   cancel a queued or running job, or close a session
//	list     list all jobs the daemon knows
//	wait     poll until a job reaches a terminal state, or a session opens
//	delta    apply an ECO delta document (file or - for stdin) to a session
//	top      render the daemon's operational snapshot (/api/v1/ops)
//
// submit -kind explore runs Algorithm 3's strategy exploration as a job;
// the tuned strategy is its strategy.json artifact. submit -kind session
// opens an interactive ECO session: its job places the design once and
// stays open, and each delta re-places it warm. submit -tenant names the
// fair-share queue lane the job waits in.
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
		return errors.New("usage: pufferctl [-addr URL] {submit|status|watch|result|artifact|cancel|list|wait|delta|top} ...")
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
		if len(rest) != 1 {
			return errors.New("usage: pufferctl watch <id>")
		}
		err = c.stream(rest[0], false)
	case "artifact":
		err = c.artifact(rest)
	case "cancel":
		err = c.print(rest, "cancel <id>", http.MethodPost, "/api/v1/jobs/%s/cancel")
	case "list":
		err = c.list()
	case "wait":
		err = c.wait(rest)
	case "delta":
		err = c.delta(rest)
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

func (c *cli) submit(args []string) error {
	fs := c.flags("submit")
	var (
		profile  = fs.String("profile", "", "synthetic benchmark profile name")
		scale    = fs.Int("scale", 800, "profile scale divisor")
		seed     = fs.Int64("seed", 1, "random seed")
		aux      = fs.String("aux", "", "Bookshelf .aux file to upload (with its sibling files)")
		iters    = fs.Int("iters", 0, "max global placement iterations (0 = default)")
		workers  = fs.Int("workers", 0, "cap parallelism (0 = GOMAXPROCS; explore jobs: relevance groups at once)")
		strategy = fs.String("strategy", "", "JSON strategy file (puffer explore -out format)")
		kind     = fs.String("kind", "place", "job kind: place | explore | session")
		route    = fs.Bool("route", false, "append the evaluation-routing stage")
		budget   = fs.Int("budget", 0, "exploration trial budget (explore jobs)")
		timeout  = fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
		watch    = fs.Bool("watch", false, "stream progress until the job finishes (a session: until it opens)")
		trace    = fs.String("trace", "", "wait for the job and write a merged client+daemon Chrome trace here")
		tenant   = fs.String("tenant", "", "tenant name for fair-share scheduling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := map[string]any{"kind": *kind, "scale": *scale, "seed": *seed}
	if *profile != "" {
		spec["profile"] = *profile
	}
	if *aux != "" {
		files, err := inlineBookshelf(*aux)
		if err != nil {
			return err
		}
		spec["bookshelf"] = files
	}
	if *iters > 0 {
		spec["max_iters"] = *iters
	}
	if *workers > 0 {
		spec["workers"] = *workers
	}
	if *strategy != "" {
		data, err := os.ReadFile(*strategy)
		if err != nil {
			return err
		}
		spec["strategy"] = json.RawMessage(data)
	}
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
		watchErr = c.stream(m.ID, true)
	}
	if *trace == "" {
		return watchErr
	}
	final, err := c.Wait(c.ctx, m.ID, 500*time.Millisecond, 15*time.Minute)
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
	if final.State.Terminal() && final.State != serve.StateDone {
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

// errOpen ends a stream at a session's open state.
var errOpen = errors.New("session open")

// stream consumes the job's SSE progress stream, rendering progress lines
// until the stream ends — or, with untilOpen, until a session opens; the
// final state decides the error.
func (c *cli) stream(id string, untilOpen bool) error {
	var final serve.Event
	err := c.Events(c.ctx, "/api/v1/jobs/"+id+"/events", func(e serve.Event) error {
		switch e.Type {
		case "state":
			fmt.Fprintf(c.out, "state: %s %s\n", e.State, e.Error)
			final = e
			if untilOpen && e.State == serve.StateOpen {
				return errOpen
			}
		case "stage":
			fmt.Fprintf(c.out, "stage %s %s (iters=%d wall=%.0fms)\n", e.Stage, e.StageStatus, e.Iters, e.WallMS)
		case "sample":
			fmt.Fprintf(c.out, "  %s[%d] = %g\n", e.Series, e.Step, e.Value)
		case "log":
			fmt.Fprintln(c.out, e.Line)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errOpen) {
		return err
	}
	switch final.State {
	case serve.StateDone, serve.StateOpen, "":
		return nil
	case serve.StateParked, serve.StateQueued:
		fmt.Fprintln(c.out, "interrupted; it will resume when the daemon restarts")
		return nil
	default:
		return fmt.Errorf("%s %s: %s", id, final.State, final.Error)
	}
}

// delta applies a delta document (a file path, or "-" for stdin) to a
// session job and prints the new placement summary.
func (c *cli) delta(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pufferctl delta <id> <delta.json|->")
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
	if err := c.JSON(c.ctx, http.MethodPost, "/api/v1/jobs/"+id+"/deltas", data, &dr); err != nil {
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
	m, err := c.Wait(c.ctx, rest[0], *poll, *timeout)
	if err != nil {
		return err
	}
	if m.State.Terminal() && m.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", m.ID, m.State, m.Error)
	}
	fmt.Fprintln(c.out, m.State)
	return nil
}
