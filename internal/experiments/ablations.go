package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"puffer"
	"puffer/internal/explore"
	"puffer/internal/feature"
	"puffer/internal/router"
	"puffer/internal/synth"
)

// AblationResult compares a PUFFER mechanism switched on vs off on the
// stressed MEDIA_SUBSYS profile; the metric is HOF+VOF (%), smaller is
// better, which is also the strategy-exploration objective the paper uses.
type AblationResult struct {
	Name      string
	MetricOn  float64
	MetricOff float64
	WLOn      float64
	WLOff     float64
}

// ablationSeeds is how many seeds each ablation averages over; single-seed
// differences at these scales are dominated by placement noise.
const ablationSeeds = 3

// runConfigured places MEDIA_SUBSYS with a mutated config over several
// seeds and returns the mean HOF+VOF and WL.
func runConfigured(o Options, mutate func(*puffer.Config)) (float64, float64, error) {
	o = mergeDefaults(o)
	p, _ := synth.ProfileByName("MEDIA_SUBSYS")
	var ovf, wl float64
	for k := int64(0); k < ablationSeeds; k++ {
		seed := o.Seed + k
		d := synth.Generate(p, o.Scale, seed)
		cfg := puffer.DefaultConfig()
		cfg.Place.Seed = seed
		if o.PlaceIters > 0 {
			cfg.Place.MaxIters = o.PlaceIters
		}
		if mutate != nil {
			mutate(&cfg)
		}
		if _, err := puffer.Run(d, cfg); err != nil {
			return 0, 0, err
		}
		rr := puffer.Evaluate(d, router.DefaultConfig())
		ovf += (rr.HOF + rr.VOF) / ablationSeeds
		wl += rr.WL / ablationSeeds
	}
	return ovf, wl, nil
}

// AblationFeatures compares full multi-feature padding against padding
// from local features only (Sec. III-B's claim that local information
// cannot separate cells within a cluster).
func AblationFeatures(o Options) (AblationResult, error) {
	res := AblationResult{Name: "multi-feature vs local-only padding"}
	var err error
	if res.MetricOn, res.WLOn, err = runConfigured(o, nil); err != nil {
		return res, err
	}
	res.MetricOff, res.WLOff, err = runConfigured(o, func(cfg *puffer.Config) {
		cfg.Strategy.Weights[feature.SurroundCg] = 0
		cfg.Strategy.Weights[feature.SurroundPinDensity] = 0
		cfg.Strategy.Weights[feature.PinCg] = 0
		// Rebalance so total padding pressure stays comparable.
		cfg.Strategy.Weights[feature.LocalCg] *= 2
		cfg.Strategy.Weights[feature.LocalPinDensity] *= 2
	})
	return res, err
}

// AblationExpansion toggles the detour-imitating demand expansion
// (Sec. III-A3).
func AblationExpansion(o Options) (AblationResult, error) {
	res := AblationResult{Name: "detour-imitating expansion"}
	var err error
	if res.MetricOn, res.WLOn, err = runConfigured(o, nil); err != nil {
		return res, err
	}
	res.MetricOff, res.WLOff, err = runConfigured(o, func(cfg *puffer.Config) {
		cfg.Strategy.Cong.ExpandRadius = 0
	})
	return res, err
}

// AblationRecycling disables the padding recycle mechanism (Eq. 15): a
// huge ζ drives the recycle rate to zero.
func AblationRecycling(o Options) (AblationResult, error) {
	res := AblationResult{Name: "padding recycling"}
	var err error
	if res.MetricOn, res.WLOn, err = runConfigured(o, nil); err != nil {
		return res, err
	}
	res.MetricOff, res.WLOff, err = runConfigured(o, func(cfg *puffer.Config) {
		cfg.Strategy.Zeta = 1e12
	})
	return res, err
}

// AblationLegalPadding toggles white-space-assisted legalization
// (Sec. III-D): same global placement, legalization with vs without the
// inherited padding.
func AblationLegalPadding(o Options) (AblationResult, error) {
	res := AblationResult{Name: "white-space-assisted legalization"}
	var err error
	if res.MetricOn, res.WLOn, err = runConfigured(o, nil); err != nil {
		return res, err
	}
	res.MetricOff, res.WLOff, err = runConfigured(o, func(cfg *puffer.Config) {
		cfg.Legal.InheritPadding = false
	})
	return res, err
}

// AblationTPE compares the TPE strategy exploration against pure random
// search on a synthetic padding-strategy landscape with the same
// evaluation budget (the Sec. III-C claim), averaged over a few seeds so
// single-run luck does not decide the verdict.
func AblationTPE(seed int64) AblationResult {
	agg := AblationResult{Name: "TPE vs random search (strategy landscape)"}
	const trials = 3
	for k := int64(0); k < trials; k++ {
		r := ablationTPEOnce(seed + k)
		agg.MetricOn += r.MetricOn / trials
		agg.MetricOff += r.MetricOff / trials
	}
	return agg
}

func ablationTPEOnce(seed int64) AblationResult {
	res := AblationResult{}
	// A deterministic surrogate landscape standing in for "place + route
	// and report total overflow": smooth, multi-parameter, one basin.
	objective := func(a explore.Assignment) float64 {
		mu := a["mu"]
		beta := a["beta"]
		zeta := a["zeta"]
		pu := a["pu_high"]
		v := math.Pow(math.Log(mu)-math.Log(0.8), 2)*3 +
			math.Pow(beta-1.2, 2)*0.5 +
			math.Pow(math.Log(zeta)-math.Log(3), 2) +
			math.Pow(pu-0.08, 2)*40
		return v
	}
	params := []explore.Param{
		{Name: "mu", Kind: explore.LogUniform, Lo: 0.05, Hi: 10, Group: "pad"},
		{Name: "beta", Kind: explore.Uniform, Lo: -2, Hi: 4, Group: "pad"},
		{Name: "zeta", Kind: explore.LogUniform, Lo: 0.3, Hi: 50, Group: "recycle"},
		{Name: "pu_high", Kind: explore.Uniform, Lo: 0.01, Hi: 0.3, Group: "recycle"},
	}
	e := &explore.Explorer{
		Params: params, Eval: objective,
		TimeLimit: 40, EarlyStop: 40, Rounds: 2, Seed: seed,
	}
	_, best := e.Run()
	res.MetricOn = objective(best)
	budget := len(e.History())

	rng := rand.New(rand.NewSource(seed))
	bestRand := math.Inf(1)
	for k := 0; k < budget; k++ {
		a := explore.Assignment{}
		for _, p := range params {
			switch p.Kind {
			case explore.LogUniform:
				a[p.Name] = math.Exp(math.Log(p.Lo) + rng.Float64()*(math.Log(p.Hi)-math.Log(p.Lo)))
			default:
				a[p.Name] = p.Lo + rng.Float64()*(p.Hi-p.Lo)
			}
		}
		if y := objective(a); y < bestRand {
			bestRand = y
		}
	}
	res.MetricOff = bestRand
	return res
}

// FormatAblations renders ablation rows.
func FormatAblations(rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATIONS (metric: HOF+VOF %% — smaller is better)\n")
	fmt.Fprintf(&b, "%-44s %12s %12s %12s %12s\n", "mechanism", "on", "off", "WL on", "WL off")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %12.3f %12.3f %12.0f %12.0f\n",
			r.Name, r.MetricOn, r.MetricOff, r.WLOn, r.WLOff)
	}
	return b.String()
}
