// Command puffer runs the PUFFER routability-driven placement flow (or one
// of the Table-II baselines) on a synthetic benchmark profile or a
// Bookshelf design, then evaluates the result with the built-in global
// router.
//
// Usage:
//
//	puffer -design MEDIA_SUBSYS -scale 800                 # synthetic profile
//	puffer -aux path/to/design.aux                         # Bookshelf input
//	puffer -design OR1200 -placer replace                  # baseline flow
//	puffer -design OR1200 -out placed/ -pgm maps/          # save results
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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

func main() {
	var (
		design   = flag.String("design", "", "synthetic benchmark profile name (see -list)")
		aux      = flag.String("aux", "", "Bookshelf .aux file to place instead of a profile")
		scale    = flag.Int("scale", 800, "profile scale divisor (paper size / scale)")
		seed     = flag.Int64("seed", 1, "random seed")
		placer   = flag.String("placer", "puffer", "flow: puffer | replace | commercial")
		iters    = flag.Int("iters", 0, "max global placement iterations (0 = default)")
		outDir   = flag.String("out", "", "write the placed design as Bookshelf into this directory")
		pgmDir   = flag.String("pgm", "", "write routed congestion maps as PGM images into this directory")
		noEval   = flag.Bool("noeval", false, "skip the global-routing evaluation")
		verify   = flag.Bool("verify", true, "check placement legality after the flow")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing) to this path")
		traceCSV = flag.String("trace-csv", "", "write the global-placement iteration trace (CSV) to this file")
		repOut   = flag.String("report", "", "write the structured run report (JSON, consumed by cmd/diag -report) to this file")
		htmlOut  = flag.String("html", "", "write an HTML placement/congestion report to this file")
		debug    = flag.String("debug-addr", "", "serve pprof/expvar/Prometheus metrics on this address while the flow runs (e.g. :6060)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof); see also -debug-addr for live profiles")
		memProf  = flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
		metrics  = flag.String("metrics", "", "stream metric samples to this file as they are observed (.csv extension selects CSV, anything else JSON lines)")
		strategy = flag.String("strategy", "", "JSON strategy file from cmd/explore -out")
		timeout  = flag.Duration("timeout", 0, "abort the PUFFER flow after this duration (0 = none)")
		ckpt     = flag.String("checkpoint", "", "write a flow checkpoint (JSON) to this file after each stage")
		resume   = flag.String("resume", "", "resume the flow from a checkpoint written by -checkpoint")
		workers  = flag.Int("workers", 0, "cap flow parallelism (0 = GOMAXPROCS)")
		stats    = flag.Bool("stats", true, "print per-stage pipeline statistics")
		list     = flag.Bool("list", false, "list the synthetic benchmark profiles and exit")
		verbose  = flag.Bool("v", false, "verbose progress")
	)
	flag.Parse()

	if *list {
		fmt.Println("available profiles (paper statistics):")
		for _, p := range synth.Profiles {
			fmt.Printf("  %-16s macros=%-4d cells=%-8d nets=%-8d pins=%d\n",
				p.Name, p.Macros, p.Cells, p.Nets, p.Pins)
		}
		return
	}

	var d *netlist.Design
	switch {
	case *aux != "":
		var err error
		d, err = bookshelf.Parse(*aux)
		if err != nil {
			log.Fatalf("parse %s: %v", *aux, err)
		}
		fmt.Printf("loaded %s: %d cells, %d nets, %d pins\n",
			d.Name, len(d.Cells), len(d.Nets), len(d.Pins))
	case *design != "":
		p, err := synth.ProfileByName(*design)
		if err != nil {
			log.Fatalf("%v (use -list)", err)
		}
		d = synth.Generate(p, *scale, *seed)
		s := d.Stats()
		fmt.Printf("generated %s at 1:%d: %d macros, %d cells, %d nets, %d pins\n",
			d.Name, *scale, s.Macros, s.Cells, s.Nets, s.Pins)
	default:
		log.Fatal("one of -design or -aux is required (see -list)")
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { log.Printf(format, args...) }
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
				log.Fatal(err)
			}
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
			log.Fatal(err)
		}
		defer ds.Close()
		fmt.Printf("debug endpoint: http://%s/ (pprof, /debug/vars, /metrics)\n", ds.Addr())
	}

	// Whole-run profiles (stdlib runtime/pprof). -debug-addr serves live
	// profiles over HTTP instead; these flags capture a run end to end
	// without a second terminal. Profiles are written when the flow exits
	// normally.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile written to %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			fmt.Printf("heap profile written to %s\n", *memProf)
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	gw, gh := puffer.CongGridFor(d)
	evalCfg := router.DefaultConfig()
	evalCfg.Workers = *workers
	evalCfg.Obs = rec
	var puffRC *pipeline.RunContext
	switch *placer {
	case "puffer":
		cfg := puffer.DefaultConfig()
		cfg.Place.Seed = *seed
		cfg.Workers = *workers
		cfg.Logf = logf
		cfg.Obs = rec
		if *iters > 0 {
			cfg.Place.MaxIters = *iters
		}
		if *strategy != "" {
			s, err := puffer.LoadStrategy(*strategy)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Strategy = s
		}
		rc, err := pipeline.NewRunContext(d, cfg)
		if err != nil {
			log.Fatal(err)
		}
		puffRC = rc
		pl := pipeline.New()
		if *ckpt != "" {
			pl.Checkpointer = func(cp *pipeline.Checkpoint) error { return cp.Save(*ckpt) }
		}
		if *resume != "" {
			cp, err := pipeline.LoadCheckpoint(*resume)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("resuming after stage %q from %s\n", cp.Stage, *resume)
			err = pl.Resume(ctx, rc, cp)
			if *stats {
				pipeline.WriteStageStats(os.Stdout, rc.Result.Stages)
			}
			if err != nil {
				log.Fatal(err)
			}
		} else {
			err = pl.Run(ctx, rc)
			if *stats {
				pipeline.WriteStageStats(os.Stdout, rc.Result.Stages)
			}
			if err != nil {
				if errors.Is(err, pipeline.ErrCanceled) {
					var se *pipeline.StageError
					stage := "?"
					if errors.As(err, &se) {
						stage = se.Stage
					}
					log.Fatalf("flow timed out during stage %q after %s (design left valid; HPWL=%.0f)",
						stage, time.Since(start).Round(time.Millisecond), rc.Result.HPWL)
				}
				log.Fatal(err)
			}
		}
		res := rc.Result
		fmt.Printf("PUFFER: GP iters=%d overflow=%.3f, %d padding rounds, legal avg disp=%.3f, HPWL=%.0f\n",
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
				fmt.Printf("note: this CSV holds the newest %d of %d iterations (the engine's fixed retention); -metrics streams the full per-iteration series\n",
					len(res.GP.Trace), len(res.GP.Trace)+res.GP.TraceDropped)
			}
			if err := os.WriteFile(*traceCSV, []byte(b.String()), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("iteration trace written to %s\n", *traceCSV)
		}
	case "replace":
		opts := baseline.DefaultRePlAceOpts()
		opts.Place.Seed = *seed
		opts.Place.Logf = logf
		if *iters > 0 {
			opts.Place.MaxIters = *iters
		}
		res, err := baseline.RunRePlAce(d, opts, gw, gh)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RePlAce: GP iters=%d overflow=%.3f, %d inflation rounds, HPWL=%.0f\n",
			res.GP.Iters, res.GP.Overflow, res.OptimizerCalls, res.HPWL)
	case "commercial":
		opts := baseline.DefaultCommercialOpts()
		opts.Place.Seed = *seed
		opts.Place.Logf = logf
		if *iters > 0 {
			opts.Place.MaxIters = *iters
		}
		res, err := baseline.RunCommercial(d, opts, gw, gh)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Commercial: GP iters=%d overflow=%.3f, %d optimizer calls, HPWL=%.0f\n",
			res.GP.Iters, res.GP.Overflow, res.OptimizerCalls, res.HPWL)
	default:
		log.Fatalf("unknown placer %q", *placer)
	}
	fmt.Printf("placement runtime: %s\n", time.Since(start).Round(time.Millisecond))

	if *verify {
		if vs := legal.Check(d, 5); len(vs) > 0 {
			fmt.Printf("LEGALITY: %d violations, first: %s\n", len(vs), vs[0])
		} else {
			fmt.Println("legality check: clean")
		}
	}

	var routed *router.Result
	if !*noEval {
		rr := puffer.Evaluate(d, evalCfg)
		routed = rr
		fmt.Printf("routed: HOF=%.2f%% VOF=%.2f%% WL=%.0f (%d segments, %d rerouted)\n",
			rr.HOF, rr.VOF, rr.WL, rr.Segments, rr.Rerouted)
		peak, ace := rr.Map.StandardACE()
		fmt.Printf("ACE: peak=%.3f 0.5%%=%.3f 1%%=%.3f 2%%=%.3f 5%%=%.3f\n",
			peak, ace[0], ace[1], ace[2], ace[3])
		pass := "PASS"
		if rr.HOF > 1 || rr.VOF > 1 {
			pass = "FAIL"
		}
		fmt.Printf("routability (1%% criterion): %s\n", pass)
		if *pgmDir != "" {
			if err := os.MkdirAll(*pgmDir, 0o755); err != nil {
				log.Fatal(err)
			}
			m := rr.Map
			h := make([]float64, m.W*m.H)
			v := make([]float64, m.W*m.H)
			for i := range h {
				h[i] = m.OverflowH(i)
				v[i] = m.OverflowV(i)
			}
			base := filepath.Join(*pgmDir, d.Name+"_"+*placer)
			if err := experiments.WritePGM(base+"_h.pgm", h, m.W, m.H); err != nil {
				log.Fatal(err)
			}
			if err := experiments.WritePGM(base+"_v.pgm", v, m.W, m.H); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("congestion maps written to %s_{h,v}.pgm\n", base)
		}
	}

	if *htmlOut != "" {
		o := report.DefaultOptions()
		o.Title = fmt.Sprintf("%s — %s", d.Name, *placer)
		if err := report.Write(*htmlOut, d, routed, o); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}

	if *outDir != "" {
		auxPath, err := bookshelf.Write(d, *outDir, d.Name+"_placed")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("placed design written to %s\n", auxPath)
	}

	if *trace != "" {
		if err := tracer.WriteFile(*trace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans; open in Perfetto or chrome://tracing)\n", *trace, tracer.Len())
	}
	if *repOut != "" {
		if puffRC == nil {
			log.Fatalf("-report requires -placer puffer (got %q)", *placer)
		}
		puffRC.Result.Route = routed
		rep, err := pipeline.BuildReport(puffRC)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Save(*repOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run report written to %s\n", *repOut)
	}
	if reg != nil {
		if err := reg.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	if metricsF != nil {
		if err := metricsF.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metric stream written to %s\n", *metrics)
	}
}
