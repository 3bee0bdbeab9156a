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
	"puffer/internal/synth"
	"puffer/pipeline"
)

// pufferOnly lists the flags only the PUFFER flow reads; the baselines
// reject them before placing. Every other flag reaches all three flows
// through the one pipeline they share.
var pufferOnly = []string{"strategy"}

// placeFlow runs one placement flow, evaluates it and writes the artifacts
// its flags ask for.
func placeFlow(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("puffer", flag.ContinueOnError)
	src := source{scale: 800, seed: 1}
	src.register(fs, "synthetic benchmark profile name (see -list)", true)
	fs.StringVar(&src.aux, "aux", "", "Bookshelf .aux file to place instead of a profile")
	var (
		placer   = fs.String("placer", "puffer", "flow: puffer | replace | commercial")
		outDir   = fs.String("out", "", "write the placed design as Bookshelf into this directory")
		pgmDir   = fs.String("pgm", "", "write routed congestion maps as PGM images into this directory")
		noEval   = fs.Bool("noeval", false, "skip the global-routing evaluation")
		trace    = fs.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing) to this path")
		traceCSV = fs.String("trace-csv", "", "write the global-placement iteration trace (CSV) to this file")
		repOut   = fs.String("report", "", "write the structured run report (JSON, consumed by puffer diag) to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf  = fs.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
		metrics  = fs.String("metrics", "", "stream metric samples to this file as JSON lines as they are observed")
		strategy = fs.String("strategy", "", "JSON strategy file from puffer explore -out")
		ckpt     = fs.String("checkpoint", "", "write a flow checkpoint (JSON) to this file after each stage")
		resume   = fs.String("resume", "", "resume the flow from a checkpoint written by -checkpoint")
		workers  = fs.Int("workers", 0, "cap flow parallelism (0 = GOMAXPROCS)")
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
	cfg, stages, err := baseline.Flow(*placer, src.iters)
	if err != nil {
		return err
	}
	if *placer != baseline.PUFFER {
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
	if *pgmDir != "" && *noEval {
		return errors.New("-pgm needs the routed maps that -noeval skips; drop one of -pgm, -noeval")
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

	// Telemetry: any of -trace/-report/-metrics turns the recorder on;
	// otherwise the flow runs with the nil (free) recorder.
	var (
		rec    *obs.Recorder
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if *trace != "" || *repOut != "" || *metrics != "" {
		var (
			sinks    []obs.Sink
			metricsF *os.File
		)
		if *metrics != "" {
			f, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			metricsF = f
			sinks = append(sinks, obs.NewJSONLSink(f))
		}
		reg = obs.NewRegistry(sinks...)
		tracer = obs.NewTracer()
		rec = obs.NewRecorder(tracer, reg)
		// Write the trace and flush the metric stream on every return: a
		// run that times out or fails keeps the telemetry explaining why.
		defer func() {
			if *trace != "" {
				if terr := tracer.WriteFile(*trace); terr != nil {
					err = errors.Join(err, terr)
				} else {
					fmt.Fprintf(w, "trace written to %s (%d spans; open in Perfetto or chrome://tracing)\n", *trace, tracer.Len())
				}
			}
			if metricsF != nil {
				if merr := cmp.Or(reg.Flush(), metricsF.Close()); merr != nil {
					err = errors.Join(err, merr)
				} else {
					fmt.Fprintf(w, "metric stream written to %s\n", *metrics)
				}
			}
		}()
	}
	// Whole-run profiles (stdlib runtime/pprof), written when the flow
	// exits normally.
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
	cfg.Place.Seed = src.seed
	cfg.Workers = *workers
	cfg.Logf = logf
	cfg.Obs = rec
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
	if !*noEval {
		stages = append(stages, pipeline.Route())
	}
	pl := pipeline.New(stages...)
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
	pipeline.WriteStageStats(w, rc.Result.Stages)
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
	record, err := pipeline.NewRecord(*placer, rc)
	if err != nil {
		return err
	}
	res := rc.Result
	fmt.Fprintf(w, "%s: GP iters=%d overflow=%.3f, %d padding rounds, legal avg disp=%.3f, HPWL=%.0f\n",
		baseline.Label(*placer), res.GP.Iters, res.GP.Overflow, len(res.PaddingRuns), res.Legal.AvgDisplacement, res.HPWL)
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
	fmt.Fprintf(w, "placement runtime: %s\n", record.PlaceRuntime().Round(time.Millisecond))

	if vs := legal.Check(d, 5); len(vs) > 0 {
		fmt.Fprintf(w, "LEGALITY: %d violations, first: %s\n", len(vs), vs[0])
	} else {
		fmt.Fprintln(w, "legality check: clean")
	}

	if rr := res.Route; rr != nil {
		f := record.Final
		fmt.Fprintf(w, "routed: HOF=%.2f%% VOF=%.2f%% WL=%.0f (%d segments, %d rerouted)\n",
			f.HOF, f.VOF, f.WL, f.Segments, f.Rerouted)
		peak, ace := rr.Map.StandardACE()
		fmt.Fprintf(w, "ACE: peak=%.3f 0.5%%=%.3f 1%%=%.3f 2%%=%.3f 5%%=%.3f\n",
			peak, ace[0], ace[1], ace[2], ace[3])
		pass := "PASS"
		if f.HOF > 1 || f.VOF > 1 {
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

	if *outDir != "" {
		auxPath, err := bookshelf.Write(d, *outDir, d.Name+"_placed")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "placed design written to %s\n", auxPath)
	}

	if *repOut != "" {
		if err := record.Save(*repOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "run report written to %s\n", *repOut)
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
