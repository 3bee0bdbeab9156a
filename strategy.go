package puffer

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"puffer/internal/explore"
	"puffer/internal/feature"
	"puffer/internal/netlist"
	telemetry "puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/pipeline"
)

// SaveStrategy writes a strategy as indented JSON, so tuned configurations
// from puffer explore can be shipped and reloaded.
func SaveStrategy(path string, s padding.Strategy) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("puffer: encode strategy: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadStrategy reads a strategy saved by SaveStrategy. Fields absent from
// the file keep their DefaultStrategy values; a key that names no field is
// an error (padding.DecodeStrategy).
func LoadStrategy(path string) (padding.Strategy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return padding.DefaultStrategy(), err
	}
	s, err := padding.DecodeStrategy(data)
	if err != nil {
		return s, fmt.Errorf("puffer: decode strategy %s: %w", path, err)
	}
	return s, nil
}

// StrategyParams declares the searchable strategy-parameter space of the
// routability optimizer for the Bayesian exploration (paper Sec. III-C).
// Parameters are grouped by relevance as Algorithm 3 requires: the Eq.-14
// padding formula, the recycle/utilization control, the congestion
// estimator, and the trigger thresholds.
func StrategyParams() []explore.Param {
	return []explore.Param{
		// Eq. 14: feature weights and formula constants.
		{Name: "w_local_cg", Kind: explore.Uniform, Lo: 0, Hi: 3, Group: "formula"},
		{Name: "w_local_pin", Kind: explore.Uniform, Lo: 0, Hi: 2, Group: "formula"},
		{Name: "w_surround_cg", Kind: explore.Uniform, Lo: 0, Hi: 3, Group: "formula"},
		{Name: "w_surround_pin", Kind: explore.Uniform, Lo: 0, Hi: 2, Group: "formula"},
		{Name: "w_pin_cg", Kind: explore.Uniform, Lo: 0, Hi: 1.5, Group: "formula"},
		{Name: "beta", Kind: explore.Uniform, Lo: -1, Hi: 3, Group: "formula"},
		{Name: "mu", Kind: explore.LogUniform, Lo: 0.1, Hi: 5, Group: "formula"},
		{Name: "smoothing", Kind: explore.Categorical, Choices: padding.SmoothingNames, Group: "formula"},
		// Recycling and utilization control.
		{Name: "zeta", Kind: explore.LogUniform, Lo: 0.5, Hi: 20, Group: "control"},
		{Name: "pu_low", Kind: explore.Uniform, Lo: 0.005, Hi: 0.06, Group: "control"},
		{Name: "pu_high", Kind: explore.Uniform, Lo: 0.06, Hi: 0.25, Group: "control"},
		// Trigger thresholds.
		{Name: "tau", Kind: explore.Uniform, Lo: 0.08, Hi: 0.30, Group: "trigger"},
		{Name: "xi", Kind: explore.IntUniform, Lo: 3, Hi: 14, Group: "trigger"},
		{Name: "cooldown", Kind: explore.IntUniform, Lo: 5, Hi: 60, Group: "trigger"},
		// Congestion estimation strategy.
		{Name: "pin_penalty", Kind: explore.LogUniform, Lo: 0.01, Hi: 0.5, Group: "estimation"},
		{Name: "expand_radius", Kind: explore.IntUniform, Lo: 0, Hi: 6, Group: "estimation"},
		{Name: "transfer_ratio", Kind: explore.Uniform, Lo: 0.1, Hi: 0.9, Group: "estimation"},
		{Name: "kernel_margin", Kind: explore.IntUniform, Lo: 1, Hi: 5, Group: "estimation"},
		// Legalization discretization.
		{Name: "theta", Kind: explore.IntUniform, Lo: 2, Hi: 8, Group: "legal"},
		// Optional congestion-aware net weighting (0 disables).
		{Name: "net_weight_gain", Kind: explore.Uniform, Lo: 0, Hi: 1.5, Group: "formula"},
	}
}

// ApplyAssignment writes an exploration assignment into a Strategy,
// leaving parameters absent from the assignment untouched.
func ApplyAssignment(s *padding.Strategy, a explore.Assignment) {
	set := func(dst *float64, key string) {
		if v, ok := a[key]; ok {
			*dst = v
		}
	}
	set(&s.Weights[feature.LocalCg], "w_local_cg")
	set(&s.Weights[feature.LocalPinDensity], "w_local_pin")
	set(&s.Weights[feature.SurroundCg], "w_surround_cg")
	set(&s.Weights[feature.SurroundPinDensity], "w_surround_pin")
	set(&s.Weights[feature.PinCg], "w_pin_cg")
	set(&s.Beta, "beta")
	set(&s.Mu, "mu")
	if v, ok := a["smoothing"]; ok {
		s.Smooth = padding.Smoothing(int(v))
	}
	set(&s.Zeta, "zeta")
	set(&s.PuLow, "pu_low")
	set(&s.PuHigh, "pu_high")
	set(&s.Tau, "tau")
	if v, ok := a["xi"]; ok {
		s.MaxIters = int(v)
	}
	if v, ok := a["cooldown"]; ok {
		s.CooldownIters = int(v)
	}
	set(&s.Cong.PinPenalty, "pin_penalty")
	if v, ok := a["expand_radius"]; ok {
		s.Cong.ExpandRadius = int(v)
	}
	set(&s.Cong.TransferRatio, "transfer_ratio")
	if v, ok := a["kernel_margin"]; ok {
		s.Feat.KernelMargin = int(v)
	}
	set(&s.Theta, "theta")
	set(&s.NetWeightGain, "net_weight_gain")
}

// StrategyObjective builds the exploration objective the paper uses:
// place the (small) design with the candidate strategy, judge it with the
// Route stage, and return the total overflow ratio of both directions
// from the run's record. The design is cloned per evaluation, so the
// objective is safe for the parallel group exploration.
func StrategyObjective(d *netlist.Design, placeCfg place.Config) explore.Objective {
	return func(a explore.Assignment) float64 {
		cfg := DefaultConfig()
		cfg.Place = placeCfg
		ApplyAssignment(&cfg.Strategy, a)
		rec, _, err := pipeline.Judge(context.Background(), pipeline.PUFFER, d.Clone(), cfg, pipeline.Default())
		if err != nil {
			return 1e9 // infeasible configuration
		}
		return rec.Final.HOF + rec.Final.VOF
	}
}

// ExploreOptions parameterizes ExploreStrategyOpts.
type ExploreOptions struct {
	// Budget is TC of Algorithm 2 (trials per exploration call).
	Budget int
	// Seed drives the deterministic trial schedule.
	Seed int64
	// Workers caps how many relevance groups evaluate concurrently
	// (0 = all at once). Every trial runs a full placement flow, so this
	// is the exploration's peak-memory/CPU knob; Workers=1 is the serial
	// baseline.
	Workers int
	Logf    func(format string, args ...any)
	Obs     *telemetry.Recorder
}

// ExploreStrategyOpts runs the full Algorithm-3 strategy exploration
// against a small design (the paper tunes on a small routability-challenged
// design and applies the result to the large benchmarks) and returns the
// tuned strategy plus the best observed one, on Algorithm 3's production
// schedule: TC = budget, EC = max(budget/3, 5), two rounds, groups in
// parallel. It is the common core of every exploration path. The context
// is observed between SMBO trials: on cancellation the best strategies
// found so far are still returned, alongside an error wrapping
// ErrCanceled. With opt.Obs set, per-trial scores and the best-score gauge
// land on its registry (explore.trial.score / explore.best_score) and the
// exploration opens a trace span. When every trial scored the same, one
// line through opt.Logf says so: the exploration had nothing to choose
// between.
func ExploreStrategyOpts(ctx context.Context, d *netlist.Design, placeCfg place.Config, opt ExploreOptions) (final, best padding.Strategy, obs int, err error) {
	e := &explore.Explorer{
		Params:    StrategyParams(),
		Eval:      StrategyObjective(d, placeCfg),
		TimeLimit: opt.Budget,
		EarlyStop: max(opt.Budget/3, 5),
		Rounds:    2,
		Workers:   opt.Workers,
		Seed:      opt.Seed,
		Logf:      opt.Logf,
		Obs:       opt.Obs,
	}
	fa, ba, err := e.RunCtx(ctx)
	if h := e.History(); len(h) > 1 && opt.Logf != nil && flat(h) {
		opt.Logf("explore: all %d trials scored %.4f: no strategy changed the placement (a GP iteration cap below the first padding round does this)",
			len(h), h[0].Y)
	}
	final = padding.DefaultStrategy()
	ApplyAssignment(&final, fa)
	best = padding.DefaultStrategy()
	ApplyAssignment(&best, ba)
	return final, best, len(e.History()), err
}

// flat reports whether every observation in h has the same score.
func flat(h []explore.Observation) bool {
	for _, o := range h[1:] {
		if o.Y != h[0].Y {
			return false
		}
	}
	return true
}
