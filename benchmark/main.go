// Command benchmark is the repo's one benchmark harness: four named
// workloads, end-to-end metrics from an untraced run and per-layer metrics
// from a separate traced run, with every output verified. README.md in this
// directory documents the workloads and metrics; BENCHMARK.json at the repo
// root carries the same catalog for the driver.
//
// Usage (through run.sh, which builds this harness and pufferd first):
//
//	benchmark/run.sh -workload <name|all> -seed N -seconds S -trace 0|1 [-out f.json] [-repeat N]
//	benchmark/run.sh -compare old.json new.json
//
// Every metric prints as "workload metric value unit"; the last line of a
// single-workload run is the JSON object the driver reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same designs, deltas and job order")
		seconds  = flag.Float64("seconds", 20, "how long one run measures (place reps fill it; delta and job counts scale with it)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "also write the runs, with an env block, to this JSON file")
		repeat   = flag.Int("repeat", 1, "run each selected workload this many times (same seed)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: old.json new.json")
		pufferd  = flag.String("pufferd", "", "pufferd binary (run.sh builds and passes it)")
		workDir  = flag.String("workdir", "", "scratch directory for spools, uploads and downloads (default: a temp dir, removed on exit)")
		results  = flag.String("results", filepath.Join("benchmark", "results"), "directory for trace-<workload>.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive and -repeat at least 1")
		return 2
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadByName(*workload); ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}

	dir := *workDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "puffer-bench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// SIGINT/SIGTERM cancel the run; the workloads return and their
	// deferred clean-up stops any daemon they started.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	file := resultFile{Env: captureEnv(*seed, *seconds, w, *repeat)}
	failed := false
	for _, name := range names {
		for rep := 0; rep < *repeat; rep++ {
			h := &harness{
				seed: *seed, seconds: *seconds, workers: w, pufferd: *pufferd,
				workDir:    filepath.Join(dir, fmt.Sprintf("%s-%d-%d", name, *trace, rep)),
				resultsDir: *results,
				logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
				},
			}
			if err := os.MkdirAll(h.workDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			res := h.runWorkload(ctx, name, *trace == 1)
			res.checkCatalog()
			printResult(os.Stdout, res)
			file.Runs = append(file.Runs, res)
			if res.OpsFail > 0 {
				failed = true
			}
			os.RemoveAll(h.workDir)
		}
	}
	if *out != "" {
		if err := file.save(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if len(file.Runs) == 1 {
		// The driver reads the last line of standard output.
		fmt.Println(driverLine(file.Runs[0]))
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload dispatches one run of one workload.
func (h *harness) runWorkload(ctx context.Context, name string, traced bool) *runResult {
	if traced {
		return h.runTraced(ctx, name)
	}
	switch name {
	case wlPlaceCongested:
		return h.runPlace(ctx, name, designCongested)
	case wlPlaceLargeCalm:
		return h.runPlace(ctx, name, designLargeCalm)
	case wlEcoChain:
		return h.runEco(ctx)
	default:
		return h.runServe(ctx)
	}
}

// printResult prints every metric of a run as "workload metric value
// unit", then the op counts and any failure reasons.
func printResult(w *os.File, r *runResult) {
	for _, name := range sortedKeys(r.Metrics) {
		unit := "?"
		if m, ok := metricByName(r.catalog(), name); ok {
			unit = m.Unit
		}
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, r.Metrics[name], unit)
	}
	fmt.Fprintf(w, "%s ops_total %d count\n", r.Workload, r.OpsTotal)
	fmt.Fprintf(w, "%s ops_failed %d count\n", r.Workload, r.OpsFail)
	for _, k := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "# %s %s: %s\n", r.Workload, k, r.Notes[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# %s FAILED: %s\n", r.Workload, f)
	}
}

// driverLine renders a run as the one-line JSON object of the benchmark
// contract: correct, attempted, failed, and every metric with its unit.
func driverLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range r.catalog() {
		if v, ok := r.Metrics[m.Name]; ok {
			metrics[m.Name] = mv{v, m.Unit}
		}
	}
	attempted := r.OpsTotal
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.OpsFail == 0,
		"attempted": attempted,
		"failed":    r.OpsFail,
		"metrics":   metrics,
	})
	if err != nil {
		// NaN/Inf values do not encode; checkCatalog has already failed the run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, attempted, attempted)
	}
	return string(line)
}
