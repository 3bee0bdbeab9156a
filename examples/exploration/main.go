// Exploration demonstrates the Bayesian strategy exploration of
// Sec. III-C: the PUFFER strategy parameters (feature weights, padding
// formula constants, recycling, utilization schedule, triggers, estimator
// knobs) are tuned by SMBO/TPE on a small routability-challenged design,
// and the tuned strategy is then applied to a larger benchmark — exactly
// the workflow the paper prescribes.
//
//	go run ./examples/exploration
package main

import (
	"fmt"
	"log"

	"puffer"
	"puffer/internal/place"
	"puffer/internal/router"
	"puffer/internal/synth"
)

func main() {
	// Tune on a small design (fast objective evaluations)...
	small, err := synth.ProfileByName("OR1200")
	if err != nil {
		log.Fatal(err)
	}
	tuneDesign := synth.Generate(small, 3000, 1)
	fmt.Printf("tuning on %s (%d cells)\n", tuneDesign.Name, tuneDesign.Stats().Cells)

	pcfg := place.DefaultConfig()
	pcfg.MaxIters = 300
	final, best, evals := puffer.ExploreStrategy(tuneDesign, pcfg, 8, 1, nil)
	fmt.Printf("exploration finished after %d observations\n", evals)
	fmt.Printf("  tuned mu=%.2f beta=%.2f zeta=%.2f tau=%.2f xi=%d theta=%.0f\n",
		best.Mu, best.Beta, best.Zeta, best.Tau, best.MaxIters, best.Theta)
	_ = final

	// ...then apply the tuned strategy to a larger, different benchmark.
	big, err := synth.ProfileByName("MEDIA_SUBSYS")
	if err != nil {
		log.Fatal(err)
	}
	for _, run := range []struct {
		name     string
		strategy func(cfg *puffer.Config)
	}{
		{"default ", func(cfg *puffer.Config) {}},
		{"explored", func(cfg *puffer.Config) { cfg.Strategy = best }},
	} {
		d := synth.Generate(big, 2000, 1)
		cfg := puffer.DefaultConfig()
		run.strategy(&cfg)
		if _, err := puffer.Run(d, cfg); err != nil {
			log.Fatal(err)
		}
		rr := puffer.Evaluate(d, router.DefaultConfig())
		fmt.Printf("%s on %s: HOF=%.2f%% VOF=%.2f%% WL=%.0f\n",
			run.name, d.Name, rr.HOF, rr.VOF, rr.WL)
	}
}
