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

// strategyParams is the searchable strategy-parameter space of the
// routability optimizer for the Bayesian exploration (paper Sec. III-C),
// one row per parameter: its declaration and the Strategy field it sets.
// Parameters are grouped by relevance as Algorithm 3 requires: the Eq.-14
// padding formula, the recycle/utilization control, the congestion
// estimator, and the trigger thresholds. The row order is the order the
// TPE draws in, so it fixes every exploration's random stream.
var strategyParams = []struct {
	explore.Param
	set func(*padding.Strategy, float64)
}{
	// Eq. 14: feature weights and formula constants.
	{explore.Param{Name: "w_local_cg", Kind: explore.Uniform, Lo: 0, Hi: 3, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Weights[feature.LocalCg] = v }},
	{explore.Param{Name: "w_local_pin", Kind: explore.Uniform, Lo: 0, Hi: 2, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Weights[feature.LocalPinDensity] = v }},
	{explore.Param{Name: "w_surround_cg", Kind: explore.Uniform, Lo: 0, Hi: 3, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Weights[feature.SurroundCg] = v }},
	{explore.Param{Name: "w_surround_pin", Kind: explore.Uniform, Lo: 0, Hi: 2, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Weights[feature.SurroundPinDensity] = v }},
	{explore.Param{Name: "w_pin_cg", Kind: explore.Uniform, Lo: 0, Hi: 1.5, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Weights[feature.PinCg] = v }},
	{explore.Param{Name: "beta", Kind: explore.Uniform, Lo: -1, Hi: 3, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Beta = v }},
	{explore.Param{Name: "mu", Kind: explore.LogUniform, Lo: 0.1, Hi: 5, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Mu = v }},
	{explore.Param{Name: "smoothing", Kind: explore.Categorical, Choices: padding.SmoothingNames, Group: "formula"}, func(s *padding.Strategy, v float64) { s.Smooth = padding.Smoothing(int(v)) }},
	// Recycling and utilization control.
	{explore.Param{Name: "zeta", Kind: explore.LogUniform, Lo: 0.5, Hi: 20, Group: "control"}, func(s *padding.Strategy, v float64) { s.Zeta = v }},
	{explore.Param{Name: "pu_low", Kind: explore.Uniform, Lo: 0.005, Hi: 0.06, Group: "control"}, func(s *padding.Strategy, v float64) { s.PuLow = v }},
	{explore.Param{Name: "pu_high", Kind: explore.Uniform, Lo: 0.06, Hi: 0.25, Group: "control"}, func(s *padding.Strategy, v float64) { s.PuHigh = v }},
	// Trigger thresholds.
	{explore.Param{Name: "tau", Kind: explore.Uniform, Lo: 0.08, Hi: 0.30, Group: "trigger"}, func(s *padding.Strategy, v float64) { s.Tau = v }},
	{explore.Param{Name: "xi", Kind: explore.IntUniform, Lo: 3, Hi: 14, Group: "trigger"}, func(s *padding.Strategy, v float64) { s.MaxIters = int(v) }},
	{explore.Param{Name: "cooldown", Kind: explore.IntUniform, Lo: 5, Hi: 60, Group: "trigger"}, func(s *padding.Strategy, v float64) { s.CooldownIters = int(v) }},
	// Congestion estimation strategy.
	{explore.Param{Name: "pin_penalty", Kind: explore.LogUniform, Lo: 0.01, Hi: 0.5, Group: "estimation"}, func(s *padding.Strategy, v float64) { s.Cong.PinPenalty = v }},
	{explore.Param{Name: "expand_radius", Kind: explore.IntUniform, Lo: 0, Hi: 6, Group: "estimation"}, func(s *padding.Strategy, v float64) { s.Cong.ExpandRadius = int(v) }},
	{explore.Param{Name: "transfer_ratio", Kind: explore.Uniform, Lo: 0.1, Hi: 0.9, Group: "estimation"}, func(s *padding.Strategy, v float64) { s.Cong.TransferRatio = v }},
	{explore.Param{Name: "kernel_margin", Kind: explore.IntUniform, Lo: 1, Hi: 5, Group: "estimation"}, func(s *padding.Strategy, v float64) { s.Feat.KernelMargin = int(v) }},
	// Legalization discretization.
	{explore.Param{Name: "theta", Kind: explore.IntUniform, Lo: 2, Hi: 8, Group: "legal"}, func(s *padding.Strategy, v float64) { s.Theta = v }},
	// Optional congestion-aware net weighting (0 disables).
	{explore.Param{Name: "net_weight_gain", Kind: explore.Uniform, Lo: 0, Hi: 1.5, Group: "formula"}, func(s *padding.Strategy, v float64) { s.NetWeightGain = v }},
}

// StrategyParams declares the searchable strategy-parameter space, in
// strategyParams' order.
func StrategyParams() []explore.Param {
	ps := make([]explore.Param, len(strategyParams))
	for i, r := range strategyParams {
		ps[i] = r.Param
	}
	return ps
}

// ApplyAssignment writes an exploration assignment into a Strategy,
// leaving parameters absent from the assignment untouched.
func ApplyAssignment(s *padding.Strategy, a explore.Assignment) {
	for _, r := range strategyParams {
		if v, ok := a[r.Name]; ok {
			r.set(s, v)
		}
	}
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
// design and applies the result to the large benchmarks), on Algorithm 3's
// production schedule: TC = budget, EC = max(budget/3, 5), two rounds,
// groups in parallel. It returns the tuned strategy — the median of the
// converged ranges — with its score, judged once more on d after the last
// round exactly as a trial is, and the number of trials. It is the common
// core of every exploration path; a budget below one trial is an error.
// The context is observed between SMBO trials: on cancellation the range
// median so far is still returned, unjudged (score 0), alongside an error
// wrapping ErrCanceled. With opt.Obs set, per-trial scores and the
// best-trial gauge land on its registry (explore.trial.score /
// explore.best_score) and the exploration opens a trace span. When every
// trial so far scored the same at the end of a pass, the exploration
// stops and says so through opt.Logf; a GP iteration cap below the first
// padding round does this.
func ExploreStrategyOpts(ctx context.Context, d *netlist.Design, placeCfg place.Config, opt ExploreOptions) (tuned padding.Strategy, score float64, trials int, err error) {
	tuned = padding.DefaultStrategy()
	if opt.Budget < 1 {
		return tuned, 0, 0, fmt.Errorf("puffer: exploration budget %d, want at least 1 trial per call", opt.Budget)
	}
	judge := StrategyObjective(d, placeCfg)
	e := &explore.Explorer{
		Params:    StrategyParams(),
		Eval:      judge,
		TimeLimit: opt.Budget,
		EarlyStop: max(opt.Budget/3, 5),
		Rounds:    2,
		Workers:   opt.Workers,
		Seed:      opt.Seed,
		Logf:      opt.Logf,
		Obs:       opt.Obs,
	}
	final, err := e.RunCtx(ctx)
	ApplyAssignment(&tuned, final)
	if err == nil {
		score = judge(final)
	}
	return tuned, score, len(e.History()), err
}
