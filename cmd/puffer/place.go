package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"puffer"
	"puffer/internal/baseline"
	"puffer/internal/bookshelf"
	"puffer/internal/experiments"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/report"
	"puffer/internal/router"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// pufferOnly lists the flags only the PUFFER flow reads; the baselines
// reject them before placing.
var pufferOnly = []string{"report", "trace-csv", "checkpoint", "resume", "strategy", "timeout"}

// placeFlow runs one placement flow, evaluates it and writes the artifacts
// its flags ask for.
func placeFlow(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("puffer", flag.ContinueOnError)
	src := source{scale: 800, seed: 1}
	src.register(fs, "synthetic benchmark profile name (see -list)", true)
	fs.StringVar(&src.aux, "aux", "", "Bookshelf .aux file to place instead of a profile")
	var (
		placer   = fs.String("placer", "puffer", "flow: puffer | replace | commercial")
		outDir   = fs.String("out", "", "write the placed design as Bookshelf into this directory")
		pgmDir   = fs.String("pgm", "", "write routed congestion maps as PGM images into this directory")
		noEval   = fs.Bool("noeval", false, "skip the global-routing evaluation")
		verify   = fs.Bool("verify", true, "check placement legality after the flow")
		trace    = fs.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing) to this path")
		traceCSV = fs.String("trace-csv", "", "write the global-placement iteration trace (CSV) to this file")
		repOut   = fs.String("report", "", "write the structured run report (JSON, consumed by puffer diag) to this file")
		htmlOut  = fs.String("html", "", "write an HTML placement/congestion report to this file")
		debug    = fs.String("debug-addr", "", "serve pprof/expvar/Prometheus metrics on this address while the flow runs (e.g. :6060)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof); see also -debug-addr for live profiles")
		memProf  = fs.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
		metrics  = fs.String("metrics", "", "stream metric samples to this file as they are observed (.csv extension selects CSV, anything else JSON lines)")
		strategy = fs.String("strategy", "", "JSON strategy file from puffer explore -out")
		ckpt     = fs.String("checkpoint", "", "write a flow checkpoint (JSON) to this file after each stage")
		resume   = fs.String("resume", "", "resume the flow from a checkpoint written by -checkpoint")
		workers  = fs.Int("workers", 0, "cap flow parallelism (0 = GOMAXPROCS)")
		stats    = fs.Bool("stats", true, "print per-stage pipeline statistics")
		list     = fs.Bool("list", false, "list the synthetic benchmark profiles and exit")
		verbose  = fs.Bool("v", false, "verbose progress")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: puffer [explore|benchgen|experiments|diag] [flags]\n\nplacement flow flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand %q (want explore, benchgen, experiments or diag)", fs.Arg(0))
	}

	if *list {
		fmt.Fprintln(w, "available profiles (paper statistics):")
		for _, p := range synth.Profiles {
			fmt.Fprintf(w, "  %-16s macros=%-4d cells=%-8d nets=%-8d pins=%d\n",
				p.Name, p.Macros, p.Cells, p.Nets, p.Pins)
		}
		return nil
	}
	if *placer != "puffer" {
		if *placer != "replace" && *placer != "commercial" {
			return fmt.Errorf("unknown placer %q", *placer)
		}
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(pufferOnly, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("%s requires -placer puffer (got %q)", strings.Join(set, ", "), *placer)
		}
	}

	var d *netlist.Design
	switch {
	case src.aux != "":
		var err error
		d, err = bookshelf.Parse(src.aux)
		if err != nil {
			return fmt.Errorf("parse %s: %w", src.aux, err)
		}
		fmt.Fprintf(w, "loaded %s: %d cells, %d nets, %d pins\n",
			d.Name, len(d.Cells), len(d.Nets), len(d.Pins))
	case src.design != "":
		p, err := synth.ProfileByName(src.design)
		if err != nil {
			return fmt.Errorf("%w (use -list)", err)
		}
		d = synth.Generate(p, src.scale, src.seed)
		s := d.Stats()
		fmt.Fprintf(w, "generated %s at 1:%d: %d macros, %d cells, %d nets, %d pins\n",
			d.Name, src.scale, s.Macros, s.Cells, s.Nets, s.Pins)
	default:
		return errors.New("one of -design or -aux is required (see -list)")
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	// Telemetry: any of -trace/-report/-debug-addr/-metrics turns the
	// recorder on; otherwise the flow runs with the nil (free) recorder.
	var (
		rec      *obs.Recorder
		reg      *obs.Registry
		tracer   *obs.Tracer
		metricsF *os.File
	)
	if *trace != "" || *repOut != "" || *debug != "" || *metrics != "" {
		var sinks []obs.Sink
		if *metrics != "" {
			f, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			defer f.Close()
			metricsF = f
			if strings.HasSuffix(*metrics, ".csv") {
				sinks = append(sinks, obs.NewCSVSink(f))
			} else {
				sinks = append(sinks, obs.NewJSONLSink(f))
			}
		}
		reg = obs.NewRegistry(sinks...)
		tracer = obs.NewTracer()
		rec = obs.NewRecorder(tracer, reg)
	}
	if *debug != "" {
		ds, err := obs.StartDebug(*debug, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(w, "debug endpoint: http://%s/ (pprof, /debug/vars, /metrics)\n", ds.Addr())
	}

	// Whole-run profiles (stdlib runtime/pprof). -debug-addr serves live
	// profiles over HTTP instead; these flags capture a run end to end
	// without a second terminal. Profiles are written when the flow exits
	// normally.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(w, "cpu profile written to %s\n", *cpuProf)
		}()
	}
	ctx, cancel := src.context()
	defer cancel()

	start := time.Now()
	gw, gh := puffer.CongGridFor(d)
	evalCfg := router.DefaultConfig()
	evalCfg.Workers = *workers
	evalCfg.Obs = rec
	var puffRC *pipeline.RunContext
	switch *placer {
	case "puffer":
		cfg := puffer.DefaultConfig()
		cfg.Place.Seed = src.seed
		cfg.Workers = *workers
		cfg.Logf = logf
		cfg.Obs = rec
		if src.iters > 0 {
			cfg.Place.MaxIters = src.iters
		}
		if *strategy != "" {
			s, err := puffer.LoadStrategy(*strategy)
			if err != nil {
				return err
			}
			cfg.Strategy = s
		}
		rc, err := pipeline.NewRunContext(d, cfg)
		if err != nil {
			return err
		}
		puffRC = rc
		pl := pipeline.New()
		if *ckpt != "" {
			pl.Checkpointer = func(cp *pipeline.Checkpoint) error { return cp.Save(*ckpt) }
		}
		if *resume != "" {
			var cp *pipeline.Checkpoint
			if cp, err = pipeline.LoadCheckpoint(*resume); err != nil {
				return err
			}
			fmt.Fprintf(w, "resuming after stage %q from %s\n", cp.Stage, *resume)
			err = pl.Resume(ctx, rc, cp)
		} else {
			err = pl.Run(ctx, rc)
		}
		if *stats {
			pipeline.WriteStageStats(w, rc.Result.Stages)
		}
		if errors.Is(err, pipeline.ErrCanceled) {
			var se *pipeline.StageError
			stage := "?"
			if errors.As(err, &se) {
				stage = se.Stage
			}
			return fmt.Errorf("flow timed out during stage %q after %s (design left valid; HPWL=%.0f)",
				stage, time.Since(start).Round(time.Millisecond), rc.Result.HPWL)
		}
		if err != nil {
			return err
		}
		res := rc.Result
		fmt.Fprintf(w, "PUFFER: GP iters=%d overflow=%.3f, %d padding rounds, legal avg disp=%.3f, HPWL=%.0f\n",
			res.GP.Iters, res.GP.Overflow, len(res.PaddingRuns), res.Legal.AvgDisplacement, res.HPWL)
		// Evaluate routing on the flow's congestion grid.
		if rc.PadOptimizer().Iter() > 0 {
			evalCfg.GridW, evalCfg.GridH = rc.GridW, rc.GridH
		}
		if *traceCSV != "" {
			var b strings.Builder
			b.WriteString("iter,hpwl,overflow,lambda,gamma,padded\n")
			for _, it := range res.GP.Trace {
				fmt.Fprintf(&b, "%d,%g,%g,%g,%g,%t\n",
					it.Iter, it.HPWL, it.Overflow, it.Lambda, it.Gamma, it.Padded)
			}
			if res.GP.TraceDropped > 0 {
				fmt.Fprintf(w, "note: this CSV holds the newest %d of %d iterations (the engine's fixed retention); -metrics streams the full per-iteration series\n",
					len(res.GP.Trace), len(res.GP.Trace)+res.GP.TraceDropped)
			}
			if err := os.WriteFile(*traceCSV, []byte(b.String()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "iteration trace written to %s\n", *traceCSV)
		}
	case "replace":
		opts := baseline.DefaultRePlAceOpts()
		opts.Place.Seed = src.seed
		opts.Place.Logf = logf
		if src.iters > 0 {
			opts.Place.MaxIters = src.iters
		}
		res, err := baseline.RunRePlAce(d, opts, gw, gh)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "RePlAce: GP iters=%d overflow=%.3f, %d inflation rounds, HPWL=%.0f\n",
			res.GP.Iters, res.GP.Overflow, res.OptimizerCalls, res.HPWL)
	case "commercial":
		opts := baseline.DefaultCommercialOpts()
		opts.Place.Seed = src.seed
		opts.Place.Logf = logf
		if src.iters > 0 {
			opts.Place.MaxIters = src.iters
		}
		res, err := baseline.RunCommercial(d, opts, gw, gh)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Commercial: GP iters=%d overflow=%.3f, %d optimizer calls, HPWL=%.0f\n",
			res.GP.Iters, res.GP.Overflow, res.OptimizerCalls, res.HPWL)
	}
	fmt.Fprintf(w, "placement runtime: %s\n", time.Since(start).Round(time.Millisecond))

	if *verify {
		if vs := legal.Check(d, 5); len(vs) > 0 {
			fmt.Fprintf(w, "LEGALITY: %d violations, first: %s\n", len(vs), vs[0])
		} else {
			fmt.Fprintln(w, "legality check: clean")
		}
	}

	var rr *router.Result
	if !*noEval {
		rr = puffer.Evaluate(d, evalCfg)
		fmt.Fprintf(w, "routed: HOF=%.2f%% VOF=%.2f%% WL=%.0f (%d segments, %d rerouted)\n",
			rr.HOF, rr.VOF, rr.WL, rr.Segments, rr.Rerouted)
		peak, ace := rr.Map.StandardACE()
		fmt.Fprintf(w, "ACE: peak=%.3f 0.5%%=%.3f 1%%=%.3f 2%%=%.3f 5%%=%.3f\n",
			peak, ace[0], ace[1], ace[2], ace[3])
		pass := "PASS"
		if rr.HOF > 1 || rr.VOF > 1 {
			pass = "FAIL"
		}
		fmt.Fprintf(w, "routability (1%% criterion): %s\n", pass)
		if *pgmDir != "" {
			m := rr.Map
			h := make([]float64, m.W*m.H)
			v := make([]float64, m.W*m.H)
			for i := range h {
				h[i] = m.OverflowH(i)
				v[i] = m.OverflowV(i)
			}
			base := filepath.Join(*pgmDir, d.Name+"_"+*placer)
			if err := writePGMPair(base, h, v, m.W, m.H); err != nil {
				return err
			}
			fmt.Fprintf(w, "congestion maps written to %s_{h,v}.pgm\n", base)
		}
	}

	if *htmlOut != "" {
		o := report.DefaultOptions()
		o.Title = fmt.Sprintf("%s — %s", d.Name, *placer)
		if err := report.Write(*htmlOut, d, rr, o); err != nil {
			return err
		}
		fmt.Fprintf(w, "HTML report written to %s\n", *htmlOut)
	}

	if *outDir != "" {
		auxPath, err := bookshelf.Write(d, *outDir, d.Name+"_placed")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "placed design written to %s\n", auxPath)
	}

	if *trace != "" {
		if err := tracer.WriteFile(*trace); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (%d spans; open in Perfetto or chrome://tracing)\n", *trace, tracer.Len())
	}
	if *repOut != "" {
		puffRC.Result.Route = rr
		rep, err := pipeline.BuildReport(puffRC)
		if err != nil {
			return err
		}
		if err := rep.Save(*repOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "run report written to %s\n", *repOut)
	}
	if metricsF != nil {
		if err := cmp.Or(reg.Flush(), metricsF.Close()); err != nil {
			return err
		}
		fmt.Fprintf(w, "metric stream written to %s\n", *metrics)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		runtime.GC() // materialize the steady-state heap
		if err := cmp.Or(pprof.WriteHeapProfile(f), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(w, "heap profile written to %s\n", *memProf)
	}
	return nil
}

// writePGMPair writes the horizontal and vertical maps as base_h.pgm and
// base_v.pgm, creating base's directory.
func writePGMPair(base string, h, v []float64, w, ht int) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := experiments.WritePGM(base+"_h.pgm", h, w, ht); err != nil {
		return err
	}
	return experiments.WritePGM(base+"_v.pgm", v, w, ht)
}
