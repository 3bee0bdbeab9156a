// Package explore implements the Bayesian strategy exploration scheme of
// the paper (Sec. III-C): sequential model-based optimization (SMBO) with
// a tree-structured Parzen estimator (TPE) [19], the parameter-exploration
// loop of Algorithm 2 (early stop + range update), and the grouped
// strategy exploration of Algorithm 3 (global pass, then relevance groups
// explored in parallel, final values from the median of the converged
// ranges). The range median is the one answer: on held-out designs and
// seeds it transferred as well as the best single observation, within the
// spread between exploration seeds (EXPERIMENTS.md).
//
// Each product that feeds an addition is converted, as in float64(x*y) +
// z, so arm64 does not fuse it into a multiply-add: the TPE proposes the
// same bits on every architecture.
//
// The scheme is deliberately generic: any black-box objective with
// continuous, log-scaled, integer, or categorical strategy parameters can
// be searched, exactly as the paper advertises.
package explore

import (
	"cmp"
	"context"
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync"

	"puffer/internal/flow"
	"puffer/internal/obs"
	"puffer/internal/par"
)

// Kind describes a parameter's domain.
type Kind int

// Parameter kinds.
const (
	Uniform     Kind = iota // continuous in [Lo, Hi]
	LogUniform              // continuous, sampled in log space; Lo > 0
	IntUniform              // integer in [Lo, Hi]
	Categorical             // one of Choices; values are choice indices
)

// Param declares one strategy parameter.
type Param struct {
	Name    string
	Kind    Kind
	Lo, Hi  float64
	Choices []string
	// Group names the relevance group for Algorithm 3; parameters with
	// strong ties share a group and are explored together.
	Group string
}

// Range is the current search interval of a parameter (indices for
// categorical parameters).
type Range struct {
	Lo, Hi float64
}

// Mid returns the middle of the range, respecting the parameter kind.
func (p Param) Mid(r Range) float64 {
	switch p.Kind {
	case LogUniform:
		return math.Exp((math.Log(r.Lo) + math.Log(r.Hi)) / 2)
	case IntUniform, Categorical:
		return math.Round((r.Lo + r.Hi) / 2)
	default:
		return (r.Lo + r.Hi) / 2
	}
}

// Assignment maps parameter names to values (categorical values are choice
// indices).
type Assignment map[string]float64

// Observation is one evaluated configuration.
type Observation struct {
	X Assignment
	Y float64
}

// Objective evaluates an assignment; smaller is better. The paper's
// objective is the total overflow ratio of both routing directions.
type Objective func(Assignment) float64

// TPE is the tree-structured Parzen estimator sampler.
type TPE struct {
	// Gamma is the good/bad observation split quantile.
	Gamma float64
	// Candidates is how many samples are drawn from l(x) per parameter.
	Candidates int
	// Startup is how many initial observations are pure random search.
	Startup int
}

// DefaultTPE returns the sampler defaults from [19].
func DefaultTPE() TPE {
	return TPE{Gamma: 0.25, Candidates: 24, Startup: 8}
}

// Suggest proposes the next assignment for the given parameters and
// current ranges, based on past observations. Parameters not listed keep
// no entry (the caller fixes them).
func (t TPE) Suggest(rng *rand.Rand, params []Param, ranges map[string]Range, obs []Observation) Assignment {
	out := make(Assignment, len(params))
	if len(obs) < t.Startup {
		for _, p := range params {
			out[p.Name] = sampleUniform(rng, p, ranges[p.Name])
		}
		return out
	}
	// Split observations by quantile of Y.
	sorted := append([]Observation(nil), obs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Y < sorted[j].Y })
	nBelow := int(math.Ceil(t.Gamma * float64(len(sorted))))
	if nBelow < 1 {
		nBelow = 1
	}
	below, above := sorted[:nBelow], sorted[nBelow:]

	for _, p := range params {
		r := ranges[p.Name]
		if p.Kind == Categorical {
			out[p.Name] = t.suggestCategorical(rng, p, below, above)
			continue
		}
		out[p.Name] = t.suggestNumeric(rng, p, r, below, above)
	}
	return out
}

// suggestNumeric draws candidates from the Parzen mixture over the good
// observations and keeps the one maximizing l(x)/g(x).
func (t TPE) suggestNumeric(rng *rand.Rand, p Param, r Range, below, above []Observation) float64 {
	lo, hi := r.Lo, r.Hi
	warp := func(v float64) float64 { return v }
	unwarp := warp
	if p.Kind == LogUniform {
		warp = math.Log
		unwarp = math.Exp
		lo, hi = math.Log(lo), math.Log(hi)
	}
	span := hi - lo
	if span <= 0 {
		return unwarp(lo)
	}
	centersOf := func(set []Observation) []float64 {
		cs := make([]float64, 0, len(set))
		for _, o := range set {
			if v, ok := o.X[p.Name]; ok {
				cs = append(cs, warp(v))
			}
		}
		return cs
	}
	cb := centersOf(below)
	ca := centersOf(above)
	if len(cb) == 0 {
		return sampleUniform(rng, p, r)
	}
	bw := span / math.Max(4, math.Sqrt(float64(len(cb)))+2)

	density := func(x float64, centers []float64) float64 {
		// Parzen mixture of Gaussians plus a uniform floor so g never
		// vanishes inside the range.
		d := 0.1 / span
		if len(centers) == 0 {
			return d
		}
		for _, c := range centers {
			z := (x - c) / bw
			d += math.Exp(-0.5*z*z) / (bw * math.Sqrt(2*math.Pi) * float64(len(centers)))
		}
		return d
	}

	bestX, bestScore := 0.0, math.Inf(-1)
	for k := 0; k < t.Candidates; k++ {
		c := cb[rng.Intn(len(cb))]
		x := c + float64(rng.NormFloat64()*bw)
		if x < lo {
			x = lo
		} else if x > hi {
			x = hi
		}
		score := math.Log(density(x, cb)) - math.Log(density(x, ca))
		if score > bestScore {
			bestScore = score
			bestX = x
		}
	}
	v := unwarp(bestX)
	if p.Kind == IntUniform {
		v = math.Round(v)
	}
	// Guard against floating-point drift from the log-space round trip.
	if v < r.Lo {
		v = r.Lo
	} else if v > r.Hi {
		v = r.Hi
	}
	return v
}

// suggestCategorical reweights choice counts with add-one smoothing and
// picks the choice with the best good/bad probability ratio among sampled
// candidates.
func (t TPE) suggestCategorical(rng *rand.Rand, p Param, below, above []Observation) float64 {
	n := len(p.Choices)
	countIn := func(set []Observation) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 // smoothing
		}
		for _, o := range set {
			if v, ok := o.X[p.Name]; ok {
				idx := int(v)
				if idx >= 0 && idx < n {
					w[idx]++
				}
			}
		}
		return w
	}
	wb := countIn(below)
	wa := countIn(above)
	sumB := 0.0
	for _, w := range wb {
		sumB += w
	}
	// Sample candidates from l, keep best l/g.
	bestIdx, bestScore := 0, math.Inf(-1)
	for k := 0; k < t.Candidates; k++ {
		r := rng.Float64() * sumB
		idx := 0
		for acc := 0.0; idx < n-1; idx++ {
			acc += wb[idx]
			if r < acc {
				break
			}
		}
		if score := wb[idx] / wa[idx]; score > bestScore {
			bestScore = score
			bestIdx = idx
		}
	}
	return float64(bestIdx)
}

func sampleUniform(rng *rand.Rand, p Param, r Range) float64 {
	switch p.Kind {
	case LogUniform:
		lo, hi := math.Log(r.Lo), math.Log(r.Hi)
		return math.Exp(lo + float64(rng.Float64()*(hi-lo)))
	case IntUniform:
		return math.Round(r.Lo + float64(rng.Float64()*(r.Hi-r.Lo)))
	case Categorical:
		n := int(r.Hi-r.Lo) + 1
		return r.Lo + float64(rng.Intn(n))
	default:
		return r.Lo + float64(rng.Float64()*(r.Hi-r.Lo))
	}
}

// Explorer runs the strategy exploration scheme (Algorithms 2 and 3).
type Explorer struct {
	Params []Param
	Eval   Objective

	// TimeLimit is TC of Algorithm 2 (evaluations per exploration call);
	// EarlyStop is EC (evaluations without improvement before stopping).
	// Both must be positive.
	TimeLimit int
	EarlyStop int
	// Rounds is the outer TC of Algorithm 3.
	Rounds int
	// Workers caps how many parameter groups explore concurrently (Sec.
	// III-C notes group exploration can run in parallel): 0 runs every
	// group at once, 1 runs them in order. Above 1, Eval must be
	// goroutine-safe. Each group's trials run full placement flows, so
	// deployments bound peak memory with this knob.
	Workers int
	Seed    int64
	Logf    func(format string, args ...any) `json:"-"`
	// Obs attaches telemetry: per-trial scores land on the
	// "explore.trial.score" series (step = trial index), the running best
	// on the "explore.best_score" gauge, and RunCtx traces the global pass
	// and each group exploration as spans. Nil disables everything.
	Obs *obs.Recorder `json:"-"`

	mu          sync.Mutex
	history     []Observation
	best, worst float64 // lowest and highest Y seen; valid when len(history) > 0
}

// History returns all observations committed so far: the global pass's
// trials as they finish, then each round's trials group by group, in group
// order, at the round's merge — the same sequence for any Workers.
func (e *Explorer) History() []Observation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Observation(nil), e.history...)
}

func (e *Explorer) record(o Observation) {
	e.mu.Lock()
	e.history = append(e.history, o)
	trial := len(e.history)
	improved := trial == 1 || o.Y < e.best
	if improved {
		e.best = o.Y
	}
	if trial == 1 || o.Y > e.worst {
		e.worst = o.Y
	}
	best := e.best
	e.mu.Unlock()

	e.Obs.Series("explore.trial.score").Observe(trial, o.Y)
	if improved {
		e.Obs.Gauge("explore.best_score").Set(best)
	}
}

// initialRanges returns the declared full ranges.
func (e *Explorer) initialRanges() map[string]Range {
	r := make(map[string]Range, len(e.Params))
	for _, p := range e.Params {
		base := Range{p.Lo, p.Hi}
		if p.Kind == Categorical {
			base = Range{0, float64(len(p.Choices) - 1)}
		}
		r[p.Name] = base
	}
	return r
}

// paramExploration is Algorithm 2: explore the given parameter subset with
// the rest pinned, update their ranges from the observations, and report
// whether the loop stopped early (converged). Each trial goes to commit as
// it finishes. The context is checked before every SMBO trial, so a cancel
// costs at most one objective evaluation of extra work.
func (e *Explorer) paramExploration(ctx context.Context, rng *rand.Rand, subset []Param, ranges map[string]Range, pinned Assignment, commit func(Observation)) (bool, map[string]Range, error) {
	tpe := DefaultTPE()
	var obs []Observation
	best := math.Inf(1)
	npc := 0
	for tc := 0; tc < e.TimeLimit && npc < e.EarlyStop; tc++ {
		if err := flow.Check(ctx); err != nil {
			return false, updateRanges(subset, ranges, obs, tpe.Gamma), err
		}
		x := tpe.Suggest(rng, subset, ranges, obs)
		full := make(Assignment, len(e.Params))
		for k, v := range pinned {
			full[k] = v
		}
		for k, v := range x {
			full[k] = v
		}
		y := e.Eval(full)
		o := Observation{X: full, Y: y}
		obs = append(obs, o)
		commit(o)
		npc++
		if y < best {
			best = y
			npc = 0
		}
	}
	return npc >= e.EarlyStop, updateRanges(subset, ranges, obs, tpe.Gamma), nil
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// outputs pass statistical tests even on sequential inputs.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// groupSeed derives the RNG seed of group gi in round r from the base
// seed by splitmix-style mixing. The previous additive scheme
// (seed + round*1000 + gi) collided whenever round*1000+gi coincided
// across (round, group) pairs — e.g. (0, 1000) and (1, 0) — feeding
// identical random streams to different groups; mixing each coordinate
// through a bijective finalizer makes collisions astronomically unlikely
// while keeping the derivation deterministic for a fixed base seed.
func groupSeed(seed int64, round, gi int) int64 {
	// Chained (order-dependent) mixing: each input is folded into the
	// running hash before the next splitmix64 pass, so no symmetry between
	// seed, round, and group index can produce colliding streams.
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ (uint64(round) + 1))
	h = splitmix64(h ^ (uint64(gi) + 1))
	return int64(h)
}

// updateRanges shrinks each parameter's range to the span of the top-γ
// observations, expanded by a 10% margin, clamped to the previous range
// (the "adjust the parameter ranges according to the observed trends" step
// of Algorithm 2).
func updateRanges(subset []Param, ranges map[string]Range, obs []Observation, gamma float64) map[string]Range {
	out := make(map[string]Range, len(ranges))
	for k, v := range ranges {
		out[k] = v
	}
	if len(obs) == 0 {
		return out
	}
	sorted := append([]Observation(nil), obs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Y < sorted[j].Y })
	nTop := int(math.Ceil(gamma * float64(len(sorted))))
	if nTop < 2 {
		nTop = min(2, len(sorted))
	}
	top := sorted[:nTop]
	for _, p := range subset {
		if p.Kind == Categorical {
			continue // categorical ranges stay full
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, o := range top {
			if v, ok := o.X[p.Name]; ok {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		if math.IsInf(lo, 1) {
			continue
		}
		margin := float64(0.1 * (ranges[p.Name].Hi - ranges[p.Name].Lo))
		nr := Range{
			Lo: math.Max(ranges[p.Name].Lo, lo-margin),
			Hi: math.Min(ranges[p.Name].Hi, hi+margin),
		}
		if p.Kind == LogUniform && nr.Lo <= 0 {
			nr.Lo = ranges[p.Name].Lo
		}
		if nr.Hi <= nr.Lo {
			nr = ranges[p.Name]
		}
		out[p.Name] = nr
	}
	return out
}

// tied reports whether there are at least two observations and all of
// them scored the same: the objective has not told any two apart.
func (e *Explorer) tied() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.history) > 1 && e.best == e.worst
}

// Run executes Algorithm 3 and returns its answer: the median of each
// parameter's converged range.
func (e *Explorer) Run() Assignment {
	final, _ := e.RunCtx(context.Background())
	return final
}

// RunCtx is Run with cancellation: every SMBO trial boundary — in the
// global pass and inside each (possibly parallel) group exploration —
// checks the context. On cancellation the error wraps flow.ErrCanceled
// and the returned assignment is still usable: the median of the ranges
// at the moment of the cancel. The answer is not itself a trial; a caller
// that needs its score evaluates it. The run also ends early when, at the
// end of the global pass or of a round, every observation so far scored
// the same: more trials of an objective that has not varied cannot move a
// range.
func (e *Explorer) RunCtx(ctx context.Context) (Assignment, error) {
	sp, ctx := obs.Start(ctx, e.Obs, "explore")
	defer sp.End()
	rng := rand.New(rand.NewSource(e.Seed))
	ranges := e.initialRanges()

	// mids pins the groups not being explored, and is the answer.
	mids := func() Assignment {
		a := make(Assignment, len(e.Params))
		for _, p := range e.Params {
			a[p.Name] = p.Mid(ranges[p.Name])
		}
		return a
	}

	// Global exploration over all parameters (Algorithm 3 lines 1–2).
	if e.Logf != nil {
		e.Logf("explore: global pass over %d params", len(e.Params))
	}
	var gerr error
	spGlobal := sp.Child("explore.global")
	_, ranges, gerr = e.paramExploration(ctx, rng, e.Params, ranges, Assignment{}, e.record)
	spGlobal.End()

	// Group parameters by declared relevance (line 3).
	groupNames := []string{}
	groups := map[string][]Param{}
	for _, p := range e.Params {
		g := p.Group
		if g == "" {
			g = p.Name
		}
		if _, ok := groups[g]; !ok {
			groupNames = append(groupNames, g)
		}
		groups[g] = append(groups[g], p)
	}

	for round := 0; gerr == nil && round < e.Rounds; round++ {
		if e.tied() {
			if e.Logf != nil {
				h := e.History()
				e.Logf("explore: all %d trials scored %.4f: stopping, the objective told no two apart", len(h), h[0].Y)
			}
			break
		}
		pin := mids()
		earlyStop := true
		type groupResult struct {
			flag   bool
			ranges map[string]Range
			trials []Observation
			err    error
		}
		results := make([]groupResult, len(groupNames))
		runGroup := func(gi int) {
			name := groupNames[gi]
			sub := groups[name]
			// Groups may run concurrently, so each gets its own logical
			// trace thread.
			gsp := sp.Fork("explore.group")
			gsp.SetArg("group", name)
			gsp.SetArg("round", round+1)
			defer gsp.End()
			grng := rand.New(rand.NewSource(groupSeed(e.Seed, round, gi)))
			pinned := maps.Clone(pin)
			for _, p := range sub {
				delete(pinned, p.Name)
			}
			res := &results[gi]
			res.flag, res.ranges, res.err = e.paramExploration(ctx, grng, sub, ranges, pinned,
				func(o Observation) { res.trials = append(res.trials, o) })
		}
		par.ForN(cmp.Or(e.Workers, len(groupNames)), len(groupNames), runGroup)
		// Deterministic merge in group declaration order: each group's
		// trials join the history (and the trial-score series) in that
		// order, whatever order the groups finished in, and each group owns
		// its own parameters' ranges. A canceled group contributes the
		// trials and ranges it had so far; the first error (deterministic
		// in group order) aborts the remaining rounds.
		for gi, name := range groupNames {
			for _, o := range results[gi].trials {
				e.record(o)
			}
			for _, p := range groups[name] {
				ranges[p.Name] = results[gi].ranges[p.Name]
			}
			earlyStop = earlyStop && results[gi].flag
			if gerr == nil && results[gi].err != nil {
				gerr = results[gi].err
			}
		}
		if e.Logf != nil {
			e.Logf("explore: round %d done, converged=%v", round+1, earlyStop)
		}
		if earlyStop {
			break
		}
	}

	return mids(), gerr
}
