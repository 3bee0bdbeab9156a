package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"

	"puffer"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// explore runs the Bayesian strategy exploration of Sec. III-C: it tunes
// the PUFFER strategy parameters on a small routability-challenged design
// (the paper uses the same approach and applies the result to the large
// benchmarks), prints the tuned strategy — Algorithm 3's range median —
// and compares it with the default on the tuning design.
func explore(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("puffer explore", flag.ContinueOnError)
	src := source{design: "OR1200", scale: 4000, seed: 1, iters: 250}
	src.register(fs, "small profile to tune on (keep -scale large: every observation is a full place+route)", true)
	budget := fs.Int("budget", 15, "evaluations per parameter-exploration call (TC of Algorithm 2)")
	out := fs.String("out", "", "write the tuned strategy as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget < 1 {
		return fmt.Errorf("-budget %d: want at least 1 trial per exploration call", *budget)
	}

	p, err := synth.ProfileByName(src.design)
	if err != nil {
		return err
	}
	d := synth.Generate(p, src.scale, src.seed)
	s := d.Stats()
	fmt.Fprintf(w, "tuning on %s at 1:%d (%d cells, %d nets)\n", p.Name, src.scale, s.Cells, s.Nets)

	pcfg := place.DefaultConfig()
	if src.iters > 0 {
		pcfg.MaxIters = src.iters
	}
	pcfg.Seed = src.seed

	// judge scores a strategy on the tuning design as an exploration
	// trial does. It does not inherit ctx's deadline, so it also runs
	// after a timed-out exploration.
	judge := func(st padding.Strategy) (float64, error) {
		cfg := puffer.DefaultConfig()
		cfg.Place = pcfg
		cfg.Strategy = st
		rec, _, err := pipeline.Judge(context.Background(), pipeline.PUFFER, d.Clone(), cfg, pipeline.Default())
		if err != nil {
			return 0, err
		}
		return rec.Final.HOF + rec.Final.VOF, nil
	}

	ctx, cancel := src.context()
	defer cancel()
	tuned, score, n, err := puffer.ExploreStrategyOpts(ctx, d, pcfg, puffer.ExploreOptions{
		Budget: *budget, Seed: src.seed, Logf: log.Printf,
	})
	if err != nil {
		if !errors.Is(err, puffer.ErrCanceled) {
			return err
		}
		fmt.Fprintln(w, "exploration timed out; reporting the range median found so far")
		if score, err = judge(tuned); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "\n%d observations made\n", n)
	fmt.Fprintf(w, "\ntuned strategy (range median, Algorithm 3):\n%+v\n", tuned)
	if *out != "" {
		if err := puffer.SaveStrategy(*out, tuned); err != nil {
			return err
		}
		fmt.Fprintf(w, "tuned strategy written to %s\n", *out)
	}

	def, err := judge(puffer.DefaultConfig().Strategy)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s total overflow (HOF+VOF) = %.3f%%\n", "default", def)
	fmt.Fprintf(w, "%-12s total overflow (HOF+VOF) = %.3f%%\n", "tuned", score)
	return nil
}
