// Command pufferctl is the client for the pufferd placement job daemon.
//
// Usage:
//
//	pufferctl [-addr http://127.0.0.1:8080] <command> [args]
//
// Commands:
//
//	submit   submit a job (synthetic profile or Bookshelf upload); -watch streams it
//	explore  run a distributed strategy exploration on the fleet; -out saves the tuned strategy
//	status   print a job's durable manifest
//	watch    stream a job's progress (SSE) until it finishes
//	result   print a finished job's result summary
//	artifact download a spooled artifact (report.json, trace.json, …)
//	cancel   cancel a queued or running job
//	list     list all jobs the daemon knows
//	wait     poll until a job reaches a terminal state
//	session  interactive ECO sessions: open | delta | status | watch | close | list
//	top      render the daemon's operational snapshot (/api/v1/ops)
//	fleet    render a coordinator's worker registry (/api/v1/nodes)
//
// Against a fleet coordinator every job command works unchanged — it is the
// same job service, run over a fleet — and top adds the fleet and cache
// summary. submit additionally honors -tenant (fair-share lane) and
// -nocache (bypass the coordinator's content-addressed result cache).
//
// submit honors the daemon's backpressure: with -retry N, a 429 response
// is retried up to N times after the server's Retry-After hint.
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
	addr := flag.String("addr", envOr("PUFFERD_ADDR", "http://127.0.0.1:8080"), "pufferd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pufferctl [-addr URL] {submit|explore|status|watch|result|artifact|cancel|list|wait|session|top|fleet} ...")
		os.Exit(2)
	}
	c := &cli{Client: client.New(*addr, nil), ctx: context.Background()}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		err = c.submit(rest)
	case "explore":
		err = c.explore(rest)
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
	case "fleet":
		err = c.fleet()
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pufferctl:", err)
		os.Exit(1)
	}
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
	ctx context.Context
}

// designFlags are the flags every design-taking command shares; runFlags
// the two more that submit and session open do.
type designFlags struct {
	profile, aux, strategy *string
	scale, iters, workers  *int
	seed                   *int64
}

func addDesignFlags(fs *flag.FlagSet) designFlags {
	return designFlags{
		profile: fs.String("profile", "", "synthetic benchmark profile name"),
		scale:   fs.Int("scale", 800, "profile scale divisor"),
		seed:    fs.Int64("seed", 1, "random seed"),
		aux:     fs.String("aux", "", "Bookshelf .aux file to upload (with its sibling files)"),
		iters:   fs.Int("iters", 0, "max global placement iterations (0 = default)"),
	}
}

func addRunFlags(fs *flag.FlagSet) designFlags {
	f := addDesignFlags(fs)
	f.workers = fs.Int("workers", 0, "cap parallelism (0 = GOMAXPROCS)")
	f.strategy = fs.String("strategy", "", "JSON strategy file (puffer explore -out format)")
	return f
}

// spec starts the submission document from the shared flags.
func (f designFlags) spec() (map[string]any, error) {
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
	if f.workers != nil && *f.workers > 0 {
		spec["workers"] = *f.workers
	}
	if f.strategy != nil && *f.strategy != "" {
		data, err := os.ReadFile(*f.strategy)
		if err != nil {
			return nil, err
		}
		spec["strategy"] = json.RawMessage(data)
	}
	return spec, nil
}

// post submits spec, announcing backpressure retries, and prints the
// admission line ("job <id> <state>").
func (c *cli) post(noun string, spec map[string]any, o client.SubmitOptions) (*serve.Manifest, error) {
	o.OnRetry = func(attempt int, wait time.Duration) {
		fmt.Fprintf(os.Stderr, "pufferctl: queue full; retry %d/%d in %s\n", attempt, o.Retries, wait)
	}
	m, err := c.Submit(c.ctx, spec, o)
	if err != nil {
		return nil, err
	}
	if m.CacheHit {
		fmt.Printf("%s %s %s (cache hit)\n", noun, m.ID, m.State)
	} else {
		fmt.Printf("%s %s %s\n", noun, m.ID, m.State)
	}
	return m, nil
}

func (c *cli) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	df := addRunFlags(fs)
	var (
		kind    = fs.String("kind", "place", "job kind: place | explore")
		route   = fs.Bool("route", false, "append the evaluation-routing stage")
		budget  = fs.Int("budget", 0, "exploration trial budget (explore jobs)")
		timeout = fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
		watch   = fs.Bool("watch", false, "stream progress until the job finishes")
		retry   = fs.Int("retry", 0, "retry a full queue up to N times, honoring Retry-After")
		trace   = fs.String("trace", "", "wait for the job and write a merged client+daemon Chrome trace here")
		tenant  = fs.String("tenant", "", "tenant name for fair-share scheduling")
		nocache = fs.Bool("nocache", false, "force a full run even if the coordinator has a cached result")
	)
	fs.Parse(args)

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
	if *nocache {
		spec["nocache"] = true
	}

	// With -trace, this process becomes the root of the distributed trace:
	// the submit span's traceparent rides the POST, the daemon roots its
	// serve.job span under it, and after the job finishes the two Chrome
	// traces merge into one tree on one time axis.
	var (
		tracer     *obs.Tracer
		clientSpan *obs.Span
	)
	o := client.SubmitOptions{Retries: *retry, Tenant: *tenant}
	if *trace != "" {
		tracer = obs.NewTracer()
		clientSpan = tracer.StartSpan("client.submit")
		o.Traceparent = clientSpan.TraceContext().Traceparent()
	}
	postStart := time.Now()
	m, err := c.post("job", spec, o)
	if err != nil {
		return err
	}
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

// explore submits a distributed strategy exploration to a fleet
// coordinator: every TPE trial runs as its own place job across the
// workers, the controller checkpoints for durable resume, and the tuned
// strategy document comes back as an artifact (-out saves it locally).
func (c *cli) explore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	df := addDesignFlags(fs)
	var (
		budget    = fs.Int("budget", 0, "trials per exploration call (0 = server default 8)")
		earlyStop = fs.Bool("early-stop", false, "cancel dominated trials mid-flight (trades determinism for wall clock)")
		warm      = fs.Bool("warm", false, "seed TPE priors/ranges from prior explorations of the same design family")
		timeout   = fs.Duration("timeout", 0, "per-trial deadline (0 = server default)")
		watch     = fs.Bool("watch", false, "stream exploration progress until it finishes")
		wait      = fs.Duration("wait", 30*time.Minute, "give up waiting for the exploration after this long")
		retry     = fs.Int("retry", 0, "retry a full queue up to N times, honoring Retry-After")
		tenant    = fs.String("tenant", "", "tenant name for fleet fair-share scheduling")
		nocache   = fs.Bool("nocache", false, "recompute the exploration even if a cached result exists (finished trials still dedupe through the result index)")
		out       = fs.String("out", "", "write the tuned strategy JSON here when the exploration finishes")
	)
	fs.Parse(args)

	spec, err := df.spec()
	if err != nil {
		return err
	}
	spec["kind"], spec["distributed"] = "explore", true
	if *budget > 0 {
		spec["budget"] = *budget
	}
	if *earlyStop {
		spec["early_stop"] = true
	}
	if *warm {
		spec["warm_start"] = true
	}
	if *timeout > 0 {
		spec["timeout_sec"] = timeout.Seconds()
	}
	if *nocache {
		spec["nocache"] = true
	}
	m, err := c.post("exploration", spec, client.SubmitOptions{Retries: *retry, Tenant: *tenant})
	if err != nil {
		return err
	}

	var watchErr error
	if *watch {
		watchErr = c.stream("/api/v1/jobs/"+m.ID+"/events", m.ID)
	}
	final, err := c.WaitTerminal(c.ctx, m.ID, 500*time.Millisecond, *wait)
	if err != nil {
		return err
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("exploration %s %s: %s", m.ID, final.State, final.Error)
	}
	res, err := c.Result(c.ctx, m.ID)
	if err != nil {
		res = &serve.JobResult{}
	}
	fmt.Printf("exploration %s done: %d trials, best score %g, %.0fms\n",
		m.ID, res.Trials, res.BestScore, res.RuntimeMS)
	if *out != "" {
		n, err := c.Download(c.ctx, m.ID, "strategy.json", *out)
		if err != nil {
			return fmt.Errorf("fetch tuned strategy: %w", err)
		}
		fmt.Printf("tuned strategy: %s (%d bytes)\n", *out, n)
	}
	return watchErr
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
		fmt.Fprintf(os.Stderr, "pufferctl: no daemon trace for %s (%v); writing client spans only\n", id, err)
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
	fmt.Printf("trace: %s (%d processes, trace_id %s)\n", dest, len(parts), tracer.TraceID())
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
	_, err = os.Stdout.Write(data)
	return err
}

func (c *cli) list() error {
	rows, err := c.Jobs(c.ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-8s %-16s %-9s %-9s %3s  %s\n", "ID", "KIND", "DESIGN", "STATE", "STAGE", "TRY", "HPWL/ERROR")
	for _, r := range rows {
		detail := ""
		if r.HPWL > 0 {
			detail = fmt.Sprintf("%.0f", r.HPWL)
		}
		if r.Error != "" {
			detail = r.Error
		}
		fmt.Printf("%-14s %-8s %-16s %-9s %-9s %3d  %s\n",
			r.ID, r.Kind, r.Design, r.State, r.Stage, r.Attempts, detail)
	}
	return nil
}

func (c *cli) artifact(args []string) error {
	fs := flag.NewFlagSet("artifact", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: the artifact name)")
	fs.Parse(args)
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
	fmt.Printf("%s: %d bytes\n", dest, n)
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
			fmt.Printf("state: %s %s\n", e.State, e.Error)
			final = e
		case "stage":
			fmt.Printf("stage %s %s (iters=%d wall=%.0fms)\n", e.Stage, e.StageStatus, e.Iters, e.WallMS)
		case "sample":
			fmt.Printf("  %s[%d] = %g\n", e.Series, e.Step, e.Value)
		case "log":
			fmt.Println(e.Line)
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
		fmt.Println("interrupted; it will resume when the daemon restarts")
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

// sessionOpen opens an ECO session and, by default, waits for its base
// placement before returning the session ID on stdout.
func (c *cli) sessionOpen(args []string) error {
	fs := flag.NewFlagSet("session open", flag.ExitOnError)
	df := addRunFlags(fs)
	var (
		warmMax = fs.Int("warm-iters", 0, "max warm re-place iterations per delta (0 = derived)")
		nowait  = fs.Bool("nowait", false, "return after admission without waiting for the base placement")
		timeout = fs.Duration("timeout", 10*time.Minute, "give up waiting for the base placement after this long")
	)
	fs.Parse(args)

	spec, err := df.spec()
	if err != nil {
		return err
	}
	if *warmMax > 0 {
		spec["warm_max_iters"] = *warmMax
	}
	body, _ := json.Marshal(spec)
	var m serve.SessionManifest
	if err := c.JSON(c.ctx, http.MethodPost, "/api/v1/sessions", body, &m); err != nil {
		return err
	}
	fmt.Printf("session %s %s\n", m.ID, m.State)
	if *nowait {
		return nil
	}
	deadline := time.Now().Add(*timeout)
	for {
		if err := c.JSON(c.ctx, http.MethodGet, "/api/v1/sessions/"+m.ID, nil, &m); err != nil {
			return err
		}
		switch m.State {
		case serve.SessionOpen:
			fmt.Printf("session %s open hpwl=%.0f\n", m.ID, m.LastHPWL)
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
	fmt.Printf("delta %d applied: hpwl=%.0f gp_iters=%d %.0fms%s\n",
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
	fmt.Printf("%-14s %-16s %-8s %6s %5s  %s\n", "ID", "DESIGN", "STATE", "DELTAS", "WARM", "HPWL/ERROR")
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
		fmt.Printf("%-14s %-16s %-8s %6d %5s  %s\n", r.ID, r.Design, r.State, r.Deltas, warm, detail)
	}
	return nil
}

// top renders the daemon's one-call operational picture: lifecycle, queue
// pressure, latency digests, live SLO status — and, against a coordinator,
// the fleet behind it.
func (c *cli) top() error {
	ops, err := c.Ops(c.ctx)
	if err != nil {
		return err
	}
	name := "pufferd"
	if ops.Role != "" {
		name += " " + ops.Role
	}
	fmt.Printf("%s %s  up %s  queue %d/%d  workers %d  active %d  sessions %d (%d warm)\n",
		name, ops.Status, time.Duration(ops.UptimeSeconds*float64(time.Second)).Round(time.Second),
		ops.QueueDepth, ops.QueueCap, ops.Workers, ops.ActiveJobs,
		ops.Sessions["tracked"], ops.Sessions["warm"])
	if ops.Role != "" {
		fmt.Printf("fleet: %d nodes; cache: %d results, %d blobs (%d bytes)\n",
			len(ops.Nodes), ops.Cache["results"], ops.Cache["blobs"], ops.Cache["blob_bytes"])
	}

	if len(ops.Histograms) > 0 {
		fmt.Printf("\n%-36s %8s %9s %9s %9s %9s\n", "LATENCY", "COUNT", "MEAN", "P50", "P95", "P99")
		for _, name := range sortedKeys(ops.Histograms) {
			h := ops.Histograms[name]
			fmt.Printf("%-36s %8d %9s %9s %9s %9s\n", name, h.Count,
				fmtSecs(h.Mean), fmtSecs(h.P50), fmtSecs(h.P95), fmtSecs(h.P99))
		}
	}
	if len(ops.SLO) > 0 {
		fmt.Printf("\n%-20s %6s %9s %9s %8s  %s\n", "SLO", "Q", "VALUE", "BOUND", "WINDOW", "STATUS")
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
			fmt.Printf("%-20s %6.2f %9s %9s %8d  %s\n",
				o.Name, o.Quantile, fmtSecs(o.Value), fmtSecs(o.Bound), o.Window, status)
		}
	}
	if len(ops.Counters) > 0 {
		fmt.Printf("\n%-36s %8s\n", "COUNTER", "VALUE")
		for _, name := range sortedKeys(ops.Counters) {
			fmt.Printf("%-36s %8d\n", name, ops.Counters[name])
		}
	}
	return nil
}

// fleet renders a coordinator's worker registry: one row per known node
// with liveness, heartbeat age, and the load snapshot dispatch sees.
func (c *cli) fleet() error {
	rows, err := c.Nodes(c.ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-24s %-18s %-6s %9s %5s %7s %7s\n",
		"NODE", "ADDR", "ENGINE", "LIVE", "HEARTBEAT", "JOBS", "QUEUE", "ACTIVE")
	for _, r := range rows {
		live := "yes"
		switch {
		case !r.Live:
			live = "no"
		case r.Stats.Draining:
			live = "drain"
		}
		fmt.Printf("%-16s %-24s %-18s %-6s %8.1fs %5d %3d/%-3d %7d\n",
			r.ID, r.Addr, r.Engine, live, r.HeartbeatAge, r.Jobs,
			r.Stats.QueueDepth, r.Stats.QueueCap, r.Stats.ActiveJobs)
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
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	poll := fs.Duration("poll", 2*time.Second, "poll interval")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	fs.Parse(args)
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
	fmt.Println("done")
	return nil
}
