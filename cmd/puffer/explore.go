package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"

	"puffer"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/router"
	"puffer/internal/synth"
)

// explore runs the Bayesian strategy exploration of Sec. III-C: it tunes
// the PUFFER strategy parameters on a small routability-challenged design
// (the paper uses the same approach and applies the result to the large
// benchmarks), prints the tuned configuration, and compares it with the
// default on the tuning design.
func explore(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("puffer explore", flag.ContinueOnError)
	src := source{design: "OR1200", scale: 4000, seed: 1, iters: 250}
	src.register(fs, "small profile to tune on (keep -scale large: every observation is a full place+route)", true)
	budget := fs.Int("budget", 15, "evaluations per parameter-exploration call (TC of Algorithm 2)")
	out := fs.String("out", "", "write the best-observed strategy as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := synth.ProfileByName(src.design)
	if err != nil {
		return err
	}
	d := synth.Generate(p, src.scale, src.seed)
	s := d.Stats()
	fmt.Fprintf(w, "tuning on %s at 1:%d (%d cells, %d nets)\n", p.Name, src.scale, s.Cells, s.Nets)

	pcfg := place.DefaultConfig()
	pcfg.MaxIters = src.iters
	pcfg.Seed = src.seed

	ctx, cancel := src.context()
	defer cancel()
	final, best, n, err := puffer.ExploreStrategyOpts(ctx, d, pcfg, puffer.ExploreOptions{
		Budget: *budget, Seed: src.seed, Logf: log.Printf,
	})
	if err != nil {
		if !errors.Is(err, puffer.ErrCanceled) {
			return err
		}
		fmt.Fprintln(w, "exploration timed out; reporting best strategies found so far")
	}

	fmt.Fprintf(w, "\n%d observations made\n", n)
	fmt.Fprintf(w, "\nfinal (range-median, Algorithm 3) strategy:\n%+v\n", final)
	fmt.Fprintf(w, "\nbest observed strategy:\n%+v\n", best)
	if *out != "" {
		if err := puffer.SaveStrategy(*out, best); err != nil {
			return err
		}
		fmt.Fprintf(w, "best strategy written to %s\n", *out)
	}

	// Verify the tuned strategy on the tuning design.
	for _, cand := range []struct {
		name     string
		strategy padding.Strategy
	}{
		{"default", puffer.DefaultConfig().Strategy},
		{"tuned(best)", best},
	} {
		dd := d.Clone()
		cfg := puffer.DefaultConfig()
		cfg.Place = pcfg
		cfg.Strategy = cand.strategy
		if _, err := puffer.Run(dd, cfg); err != nil {
			return err
		}
		rr := puffer.Evaluate(dd, router.DefaultConfig())
		fmt.Fprintf(w, "%-12s total overflow (HOF+VOF) = %.3f%%\n", cand.name, rr.HOF+rr.VOF)
	}
	return nil
}
