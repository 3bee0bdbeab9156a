// Package padding implements the multi-feature cell padding system of the
// paper (Sec. III-B): the padding formula of Eq. 14 over the extracted
// features, the padding-history-aware recycling of Eq. 15, the utilization
// schedule of Eq. 16, the trigger conditions (τ, η, ξ) that decide when the
// routability optimizer runs, and the Algorithm-1 driver that ties them
// together. Padding mutates netlist.Cell.PadW, which the density model and
// the legalizer both consume — the "consistent cell padding" contribution.
package padding

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"puffer/internal/cong"
	"puffer/internal/feature"
	"puffer/internal/flow"
	"puffer/internal/netlist"
	"puffer/internal/obs"
)

// Smoothing selects the transfer function applied to the weighted feature
// sum in Eq. 14. The paper uses the logarithm "to smooth the distribution
// of padding values"; the alternatives implement the "more optional
// strategies" extension of Sec. V and are selectable as a categorical
// strategy parameter in the exploration.
type Smoothing int

// Padding smoothing functions.
const (
	// SmoothLog is the paper's log(max(x, 1)) (Eq. 14).
	SmoothLog Smoothing = iota
	// SmoothLinear is max(x-1, 0): proportional padding above threshold.
	SmoothLinear
	// SmoothSqrt is sqrt(max(x-1, 0)): between the two.
	SmoothSqrt
)

// SmoothingNames lists the choices for categorical exploration.
var SmoothingNames = []string{"log", "linear", "sqrt"}

// Apply evaluates the smoothing transfer function.
func (s Smoothing) Apply(x float64) float64 {
	switch s {
	case SmoothLinear:
		return math.Max(x-1, 0)
	case SmoothSqrt:
		return math.Sqrt(math.Max(x-1, 0))
	default:
		return math.Log(math.Max(x, 1))
	}
}

// Strategy bundles every strategy parameter of the routability optimizer.
// All of them are searchable by the Bayesian strategy exploration
// (Sec. III-C); the defaults are the hand-tuned starting point.
type Strategy struct {
	// Weights are the α_i of Eq. 14, one per feature in feature order.
	Weights [feature.Count]float64
	// Beta is the β offset and Mu the μ scale of Eq. 14. Mu converts the
	// dimensionless log term into design units of width.
	Beta, Mu float64
	// Smooth selects the Eq.-14 transfer function (log in the paper).
	Smooth Smoothing
	// Zeta is the ζ of the recycle-rate formula (Eq. 15).
	Zeta float64
	// PuLow and PuHigh bound the padding utilization schedule (Eq. 16).
	PuLow, PuHigh float64
	// Tau is the density-overflow trigger threshold τ (Sec. III-B3).
	Tau float64
	// Eta is the utilization convergence threshold η: the optimizer is
	// re-armed only while total padding utilization stays below it.
	Eta float64
	// MaxIters is ξ, the maximum number of routability-optimizer calls.
	MaxIters int
	// CooldownIters is the minimum number of global-placement iterations
	// between optimizer calls. It is not in the paper (Sec. III-B3 fires on
	// τ, η and ξ only): without it all ξ calls would fire on consecutive
	// iterations against the same, still-clustered placement. λ carries
	// over a round, so the engine starts absorbing it at once; 10 is the
	// shortest spacing at which every round of the calm CT_TOP still fires
	// while the congested designs keep their wirelength (DESIGN.md §3f,
	// "GP controller").
	CooldownIters int

	// Cong and Feat forward the estimator and extractor strategy knobs.
	Cong cong.Params
	Feat feature.Params

	// Theta is the θ of the legalization discretization staircase
	// (Eq. 17); it lives here so one Strategy describes the whole flow.
	Theta float64

	// NetWeightGain enables the optional congestion-aware net-weighting
	// strategy (in the spirit of the net-penalty model of Lin et al.,
	// cited as [13] by the paper): nets whose pins sit in congested
	// Gcells get their wirelength weight raised to 1 + gain·Cg so the
	// engine pulls them out of the hotspot. Zero disables it; the
	// strategy exploration may turn it on.
	NetWeightGain float64
}

// DefaultStrategy returns the hand-tuned defaults used before (or without)
// strategy exploration.
func DefaultStrategy() Strategy {
	// These values come from the Bayesian strategy exploration
	// (Sec. III-C / puffer explore) run on a small routability-challenged
	// design, exactly as the paper prescribes; they are applied unchanged
	// to every benchmark.
	c := cong.DefaultParams()
	c.PinPenalty = 0.12
	c.ExpandRadius = 4
	c.TransferRatio = 0.75
	f := feature.DefaultParams()
	f.KernelMargin = 1
	return Strategy{
		Weights: [feature.Count]float64{
			1.9,  // local congestion
			0.75, // local pin density
			0.7,  // surrounding congestion
			1.1,  // surrounding pin density
			0.3,  // pin congestion
		},
		// A near-zero offset keeps the padding selective: only cells whose
		// weighted congestion view is genuinely hot clear the log
		// threshold of Eq. 14.
		Beta:          0.0,
		Mu:            1.2,
		Zeta:          0.8,
		PuLow:         0.02,
		PuHigh:        0.14,
		Tau:           0.18,
		Eta:           0.10,
		MaxIters:      10,
		CooldownIters: 10,
		Cong:          c,
		Feat:          f,
		Theta:         6,
	}
}

// DecodeStrategy reads a strategy JSON document over DefaultStrategy: a
// key the document leaves out keeps its default, and a key that names no
// Strategy field is an error, so a misspelt "tua" cannot silently run the
// default τ. The retired estimator keys Cong.RebuildEvery,
// Cong.CongestThreshold and Feat.ZSamples decode as no-ops, so strategies
// saved before their removal keep loading.
func DecodeStrategy(data []byte) (Strategy, error) {
	var doc struct {
		Strategy
		Cong struct {
			cong.Params
			RebuildEvery     json.RawMessage
			CongestThreshold json.RawMessage
		}
		Feat struct {
			feature.Params
			ZSamples json.RawMessage
		}
	}
	doc.Strategy = DefaultStrategy()
	doc.Cong.Params = doc.Strategy.Cong
	doc.Feat.Params = doc.Strategy.Feat
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return DefaultStrategy(), err
	}
	if _, err := dec.Token(); err != io.EOF {
		return DefaultStrategy(), errors.New("padding: data after the strategy document")
	}
	s := doc.Strategy
	s.Cong = doc.Cong.Params
	s.Feat = doc.Feat.Params
	return s, nil
}

// RunInfo reports what one optimizer invocation did.
type RunInfo struct {
	Iter        int     // 1-based call index
	PaddedCells int     // cells that received new padding
	Recycled    int     // cells whose padding was recycled
	AddedArea   float64 // padding area added this round (before capping)
	TotalArea   float64 // total padding area after capping
	Utilization float64 // TotalArea / free placement area
	TargetUtil  float64 // pu_i of Eq. 16
	Scaled      bool    // whether the utilization cap forced scaling
	EstHOF      float64 // estimated horizontal overflow ratio (%)
	EstVOF      float64 // estimated vertical overflow ratio (%)
}

// Optimizer is the routability optimizer invoked from global placement
// (Algorithm 1). It owns the congestion estimator and the padding history.
type Optimizer struct {
	d *netlist.Design
	S Strategy

	iter        int   // completed calls
	padTimes    []int // pt(c): how many rounds padded each cell
	lastUtil    float64
	freeArea    float64
	lastTrigger int // GP iteration of the previous Run

	est *cong.Estimator

	// LastMap and LastFeatures expose the most recent estimation for
	// logging and the legalization stage's padding-history-aware guidance.
	LastMap      *cong.Map
	LastFeatures *feature.Set

	// Telemetry instruments (SetObs); nil — and inert — by default.
	rec     *obs.Recorder
	sUtil   *obs.Series
	sTarget *obs.Series
	sPadded *obs.Series
	sHOF    *obs.Series
	sVOF    *obs.Series
}

// NewOptimizer creates an optimizer over a gridW×gridH Gcell congestion
// grid for d.
func NewOptimizer(d *netlist.Design, gridW, gridH int, s Strategy) *Optimizer {
	return &Optimizer{
		d:        d,
		S:        s,
		padTimes: make([]int, len(d.Cells)),
		freeArea: d.Stats().FreeArea,
		est:      cong.NewEstimator(d, gridW, gridH, s.Cong),
	}
}

// Iter returns the number of completed optimizer calls.
func (o *Optimizer) Iter() int { return o.iter }

// SetObs attaches telemetry to the optimizer and its congestion estimator:
// each RunCtx call opens a "padding.run" span (child of the context's
// current span, so it nests under the placement stage), with estimator and
// feature-extraction spans as children, and publishes the RunInfo scalars
// as per-call series. A nil recorder keeps everything disabled.
func (o *Optimizer) SetObs(rec *obs.Recorder) {
	o.rec = rec
	o.sUtil = rec.Series("padding.utilization")
	o.sTarget = rec.Series("padding.target_util")
	o.sPadded = rec.Series("padding.padded_cells")
	o.sHOF = rec.Series("padding.est_hof")
	o.sVOF = rec.Series("padding.est_vof")
	o.est.SetObs(rec)
}

// ShouldTrigger evaluates the trigger conditions at global placement
// iteration gpIter: the three of Sec. III-B3 — the cells have spread enough
// (overflow < τ), the accumulated padding utilization is still converging
// (below η), the call budget ξ is not exhausted — and the repo's own
// spacing rule, that at least CooldownIters GP iterations have passed since
// the previous call. A true result is recorded as that call's iteration.
// The engine does not ask on the iteration it stops at.
func (o *Optimizer) ShouldTrigger(gpIter int, densityOverflow float64) bool {
	if densityOverflow >= o.S.Tau {
		return false
	}
	if o.iter > 0 && o.lastUtil >= o.S.Eta {
		return false
	}
	if o.iter > 0 && gpIter-o.lastTrigger < o.S.CooldownIters {
		return false
	}
	if o.iter >= o.S.MaxIters {
		return false
	}
	o.lastTrigger = gpIter
	return true
}

// Run executes Algorithm 1: estimate congestion, extract features, compute
// incremental padding (Eq. 14), recycle stale padding (Eq. 15), and cap
// total padding to the scheduled utilization (Eq. 16). Cell PadW fields
// are updated in place.
func (o *Optimizer) Run() RunInfo {
	info, _ := o.RunCtx(context.Background())
	return info
}

// RunCtx is Run with cancellation: the context is checked on entry and
// after the (parallel, itself cancelable) feature extraction, before any
// cell padding is mutated. A canceled call therefore leaves every PadW
// untouched and returns an error wrapping flow.ErrCanceled; the call does
// not count against the ξ budget.
func (o *Optimizer) RunCtx(ctx context.Context) (RunInfo, error) {
	if err := flow.Check(ctx); err != nil {
		return RunInfo{}, err
	}
	sp, ctx := obs.Start(ctx, o.rec, "padding.run")
	defer sp.End()
	o.iter++
	i := o.iter
	info := RunInfo{Iter: i}
	sp.SetArg("call", i)

	cm, err := o.est.EstimateCtx(ctx)
	if err != nil {
		// Roll the call back: the estimator rebuilds itself on the next
		// call and no padding was touched.
		o.iter--
		return RunInfo{}, err
	}
	o.LastMap = cm
	info.EstHOF, info.EstVOF = cm.OverflowRatios()
	feats, err := feature.ExtractCtx(ctx, o.d, cm, o.est.Trees, o.S.Feat)
	if err != nil {
		// Roll the call back: no padding was touched yet.
		o.iter--
		return RunInfo{}, err
	}
	o.LastFeatures = feats

	// Eq. 14 per movable cell, applied incrementally on top of the
	// preceding rounds (Sec. III-B3).
	for ci := range o.d.Cells {
		c := &o.d.Cells[ci]
		if c.Fixed {
			continue
		}
		raw := o.S.Beta
		for f := 0; f < feature.Count; f++ {
			raw += o.S.Weights[f] * feats.Vec[ci][f]
		}
		pad := o.S.Smooth.Apply(raw) * o.S.Mu
		if pad > 0 {
			c.PadW += pad
			o.padTimes[ci]++
			info.PaddedCells++
			info.AddedArea += pad * c.H
			continue
		}
		// Recycle: withdraw part of the historical padding for cells that
		// have moved away from congestion (Eq. 15).
		if c.PadW > 0 {
			r := (float64(i) - float64(o.padTimes[ci])) / (float64(i) + o.S.Zeta)
			if r < 0 {
				r = 0
			} else if r > 1 {
				r = 1
			}
			c.PadW *= 1 - r
			info.Recycled++
		}
	}

	// Utilization control (Eq. 16): linear ramp from PuLow to PuHigh over
	// the ξ optimizer calls, clamped at PuHigh — an ECO session drives
	// RunCtx past MaxIters calls across deltas, and the ramp must saturate
	// rather than extrapolate the budget open-endedly.
	target := o.S.PuLow
	if o.S.MaxIters > 1 {
		target += float64(i-1) / float64(o.S.MaxIters-1) * (o.S.PuHigh - o.S.PuLow)
	}
	if target > o.S.PuHigh {
		target = o.S.PuHigh
	}
	info.TargetUtil = target

	total := o.d.TotalPaddingArea()
	if cap := target * o.freeArea; total > cap && total > 0 {
		sr := cap / total
		for ci := range o.d.Cells {
			if !o.d.Cells[ci].Fixed {
				o.d.Cells[ci].PadW *= sr
			}
		}
		total = cap
		info.Scaled = true
	}
	info.TotalArea = total
	info.Utilization = total / o.freeArea
	o.lastUtil = info.Utilization

	if o.S.NetWeightGain > 0 {
		o.reweightNets(cm)
	}
	o.sUtil.Observe(i, info.Utilization)
	o.sTarget.Observe(i, info.TargetUtil)
	o.sPadded.Observe(i, float64(info.PaddedCells))
	o.sHOF.Observe(i, info.EstHOF)
	o.sVOF.Observe(i, info.EstVOF)
	if sp != nil {
		sp.SetArg("padded_cells", info.PaddedCells)
		sp.SetArg("utilization", info.Utilization)
	}
	return info, nil
}

// reweightNets applies the optional congestion-aware net weighting: each
// net's weight is recomputed (not accumulated) from the worst congestion
// its pins currently sit in.
func (o *Optimizer) reweightNets(cm *cong.Map) {
	for n := range o.d.Nets {
		net := &o.d.Nets[n]
		if len(net.Pins) < 2 {
			continue
		}
		worst := math.Inf(-1)
		for _, pid := range net.Pins {
			i, j := cm.GcellOf(o.d.PinPos(pid))
			if v := cm.Cg(cm.Index(i, j)); v > worst {
				worst = v
			}
		}
		w := 1.0
		if worst > 0 {
			w += o.S.NetWeightGain * math.Min(worst, 2)
		}
		net.Weight = w
	}
}

// Estimator exposes the optimizer's congestion estimator, which the
// legalization stage reuses for padding-history-aware guidance.
func (o *Optimizer) Estimator() *cong.Estimator { return o.est }

// PadTimes returns pt(c) for cell c.
func (o *Optimizer) PadTimes(c int) int { return o.padTimes[c] }

// ReArm readies a long-lived optimizer for the next ECO delta: the
// GP-iteration cooldown anchor is cleared (warm re-placements restart
// their iteration count at 1, so a stale absolute lastTrigger would block
// in-loop triggering forever) and the free area is remeasured (a delta may
// have resized fixed cells). Padding history — iter, pt(c), lastUtil — is
// deliberately kept: Eq. 15 recycling depends on it.
func (o *Optimizer) ReArm() {
	o.lastTrigger = 0
	o.freeArea = o.d.Stats().FreeArea
}

// State is the optimizer's serializable padding history, captured for
// session snapshots. Everything else an Optimizer owns (the congestion
// estimator's buffers, cached features) is recomputed by the next
// estimate; these three fields are the only state that changes results if
// lost.
type State struct {
	Iter     int     `json:"iter"`
	PadTimes []int   `json:"pad_times"`
	LastUtil float64 `json:"last_util"`
}

// State captures the padding history for a snapshot.
func (o *Optimizer) State() State {
	return State{
		Iter:     o.iter,
		PadTimes: append([]int(nil), o.padTimes...),
		LastUtil: o.lastUtil,
	}
}

// RestoreState re-installs a captured padding history, as when rehydrating
// a parked ECO session. The PadTimes length must match the design's cell
// count.
func (o *Optimizer) RestoreState(s State) error {
	if len(s.PadTimes) != len(o.d.Cells) {
		return fmt.Errorf("padding: state has %d pad_times for %d cells",
			len(s.PadTimes), len(o.d.Cells))
	}
	o.iter = s.Iter
	o.lastUtil = s.LastUtil
	copy(o.padTimes, s.PadTimes)
	return nil
}
