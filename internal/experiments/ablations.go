package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"puffer/internal/baseline"
	"puffer/internal/explore"
	"puffer/internal/feature"
	"puffer/internal/synth"
	"puffer/pipeline"
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

// An Ablation is one PUFFER mechanism switched off: Off edits the PUFFER
// flow's configuration.
type Ablation struct {
	Name string
	Off  func(*pipeline.Config)
}

// The mechanism ablations, each a claim of the paper (or a choice of this
// repo's) that Ablate tests.
var (
	// AblationFeatures compares full multi-feature padding against
	// padding from local features only (Sec. III-B's claim that local
	// information cannot separate cells within a cluster).
	AblationFeatures = Ablation{"multi-feature vs local-only padding", func(cfg *pipeline.Config) {
		cfg.Strategy.Weights[feature.SurroundCg] = 0
		cfg.Strategy.Weights[feature.SurroundPinDensity] = 0
		cfg.Strategy.Weights[feature.PinCg] = 0
		// Rebalance so total padding pressure stays comparable.
		cfg.Strategy.Weights[feature.LocalCg] *= 2
		cfg.Strategy.Weights[feature.LocalPinDensity] *= 2
	}}
	// AblationExpansion toggles the detour-imitating demand expansion
	// (Sec. III-A3).
	AblationExpansion = Ablation{"detour-imitating expansion", func(cfg *pipeline.Config) {
		cfg.Strategy.Cong.ExpandRadius = 0
	}}
	// AblationRecycling disables the padding recycle mechanism (Eq. 15):
	// a huge ζ drives the recycle rate to zero.
	AblationRecycling = Ablation{"padding recycling", func(cfg *pipeline.Config) {
		cfg.Strategy.Zeta = 1e12
	}}
	// AblationLegalPadding toggles white-space-assisted legalization
	// (Sec. III-D): same global placement, legalization with vs without
	// the inherited padding (θ = 0). DP still preserves the GP padding.
	AblationLegalPadding = Ablation{"white-space-assisted legalization", func(cfg *pipeline.Config) {
		cfg.Strategy.Theta = 0
	}}
	// AblationDPPreserve toggles detailed placement's white-space
	// preservation (this repo's choice; Sec. III-D does not describe it):
	// same global placement and legalization, DP with vs without the
	// PadW/2 clearance.
	AblationDPPreserve = Ablation{"DP white-space preservation", func(cfg *pipeline.Config) {
		cfg.DP.PreservePadding = false
	}}
)

// Ablations lists the mechanism ablations in the order `puffer experiments
// -ablations` prints them.
var Ablations = []Ablation{AblationFeatures, AblationExpansion, AblationRecycling, AblationLegalPadding, AblationDPPreserve}

// ablationSeeds is how many seeds each ablation averages over; single-seed
// differences at these scales are dominated by placement noise.
const ablationSeeds = 3

// ablationCells lists the "on" arm's cells, then each ablation's "off"
// arm's: ablationSeeds PUFFER runs of MEDIA_SUBSYS from o.Seed up.
func ablationCells(o Options, abls []Ablation) []cell {
	p, _ := synth.ProfileByName("MEDIA_SUBSYS")
	offs := []func(*pipeline.Config){nil}
	for _, a := range abls {
		offs = append(offs, a.Off)
	}
	var cells []cell
	for _, off := range offs {
		for k := int64(0); k < ablationSeeds; k++ {
			cells = append(cells, cell{profile: p, flow: baseline.PUFFER, scale: o.Scale, seed: o.Seed + k, off: off})
		}
	}
	return cells
}

// Ablate compares each ablation's mechanism on (PUFFER as configured) and
// off, each arm averaged over ablationSeeds seeds of MEDIA_SUBSYS. The "on"
// arm is the same for every row, so it is placed once.
func Ablate(o Options, abls ...Ablation) ([]AblationResult, error) {
	o = mergeDefaults(o)
	recs, _, err := o.judge("ablations", ablationCells(o, abls))
	if err != nil {
		return nil, err
	}
	// mean is arm i's mean HOF+VOF and WL over its seeds.
	mean := func(i int) (ovf, wl float64) {
		for _, r := range recs[i*ablationSeeds : (i+1)*ablationSeeds] {
			ovf += (r.Final.HOF + r.Final.VOF) / ablationSeeds
			wl += r.Final.WL / ablationSeeds
		}
		return ovf, wl
	}
	on, wlOn := mean(0)
	rows := make([]AblationResult, len(abls))
	for i, a := range abls {
		off, wlOff := mean(i + 1)
		rows[i] = AblationResult{Name: a.Name, MetricOn: on, MetricOff: off, WLOn: wlOn, WLOff: wlOff}
	}
	return rows, nil
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
		TimeLimit: 40, EarlyStop: 40, Rounds: 2, Workers: 1, Seed: seed,
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
