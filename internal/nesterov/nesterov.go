// Package nesterov implements Nesterov's accelerated gradient method with
// the inverse-Lipschitz step-size prediction and backtracking used by the
// ePlace family of placers (paper Sec. II-B, [14]). The optimizer is
// generic over a gradient oracle so the placement engine can swap
// objectives (wirelength-only warmup, wirelength + λ·density, baselines).
//
// The per-iteration vector work (candidate updates, norm reductions) runs
// across the executors of the optimizer's par.Team (SetWorkers, SetTeam).
// Candidate updates write disjoint index ranges and the norm reductions use
// a fixed shard count derived from the vector length, so every result is
// bit-identical for any worker count. After construction the step performs
// no heap allocation beyond whatever the eval oracle does — serial, or on a
// started team — and it moves no vector: the iterates rotate by slice
// header.
package nesterov

import (
	"math"

	"puffer/internal/par"
)

// EvalFunc computes the gradient of the objective at x, writing it into
// grad (same length as x). It is called at reference points, so
// implementations must tolerate arbitrary x within the feasible box.
type EvalFunc func(x, grad []float64)

// maxOptWorkers bounds SetWorkers' team — vector updates are memory-bound,
// so more shards only add dispatch overhead — and the fixed norm shard
// count.
const maxOptWorkers = 16

// ndElemsPerShard sizes the fixed norm-reduction shards; the count depends
// only on the vector length, never the worker count.
const ndElemsPerShard = 8192

// Optimizer carries the state of the accelerated method: the major
// solution u, the reference solution v, and the momentum parameter a.
type Optimizer struct {
	eval EvalFunc

	u, uPrev []float64 // major solutions
	v, vPrev []float64 // reference solutions
	g, gPrev []float64 // gradients at v, vPrev
	a        float64   // momentum parameter a_k

	// MaxBacktrack bounds the step-size backtracking iterations (ePlace
	// uses a small constant; 2 extra evaluations at most).
	MaxBacktrack int
	// AlphaMax caps the predicted step to keep the first iterations from
	// exploding when the initial gradient is tiny.
	AlphaMax float64

	alpha float64 // last used step
	iter  int

	// step scratch buffers; uNext and vNext rotate into u and v at the end
	// of a Step, which is why the stages read every vector from its field
	// at call time.
	uNext, vNext, gNext []float64

	// parallel execution state; stages are bound once in New so the hot
	// path never constructs a closure.
	team      *par.Team
	ndA, ndB  []float64 // operands of the in-flight norm reduction
	ndPartial []float64
	stepAlpha float64
	stepCoef  float64
	stageND   func(s int)
	stageU    func(w, lo, hi int)
	stageV    func(w, lo, hi int)
}

// New creates an optimizer starting at x0 with initial step alpha0. The
// optimizer starts serial; call SetWorkers or SetTeam to parallelize the
// vector work. New does not evaluate: the first Step evaluates at x0, and
// the gradient a first Step would compare against is never read.
func New(x0 []float64, eval EvalFunc, alpha0 float64) *Optimizer {
	n := len(x0)
	o := &Optimizer{
		eval:         eval,
		u:            append([]float64(nil), x0...),
		uPrev:        make([]float64, n),
		v:            append([]float64(nil), x0...),
		vPrev:        make([]float64, n),
		g:            make([]float64, n),
		gPrev:        make([]float64, n),
		a:            1,
		MaxBacktrack: 2,
		AlphaMax:     alpha0 * 1e4,
		alpha:        alpha0,
		uNext:        make([]float64, n),
		vNext:        make([]float64, n),
		gNext:        make([]float64, n),
		team:         par.NewTeam(1),
	}
	shards := n / ndElemsPerShard
	if shards < 1 {
		shards = 1
	}
	if shards > maxOptWorkers {
		shards = maxOptWorkers
	}
	o.ndPartial = make([]float64, shards)
	o.stageND = func(s int) {
		lo, hi := par.ShardRange(s, len(o.ndPartial), len(o.u))
		a, b := o.ndA, o.ndB
		t := 0.0
		for i := lo; i < hi; i++ {
			d := a[i] - b[i]
			t += d * d
		}
		o.ndPartial[s] = t
	}
	o.stageU = func(w, lo, hi int) {
		alpha := o.stepAlpha
		for i := lo; i < hi; i++ {
			o.uNext[i] = o.v[i] - alpha*o.g[i]
		}
	}
	o.stageV = func(w, lo, hi int) {
		coef := o.stepCoef
		for i := lo; i < hi; i++ {
			o.vNext[i] = o.uNext[i] + coef*(o.uNext[i]-o.u[i])
		}
	}
	copy(o.uPrev, x0)
	copy(o.vPrev, x0)
	return o
}

// SetWorkers gives the optimizer a team of its own (0 or negative selects
// GOMAXPROCS, clamped to an internal bound; see par.NewTeam). Results never
// depend on the worker count.
func (o *Optimizer) SetWorkers(n int) {
	o.SetTeam(par.NewTeam(min(par.Workers(n), maxOptWorkers)))
}

// SetTeam dispatches the optimizer's vector work on t; the placement
// engine shares one team among its kernels.
func (o *Optimizer) SetTeam(t *par.Team) { o.team = t }

// Team reports the team the optimizer dispatches on.
func (o *Optimizer) Team() *par.Team { return o.team }

// Restart clears the momentum (a_k back to 1), keeping the current
// solution. Call it when the objective changes shape mid-run — e.g. after
// cell padding re-weights the density system — so stale momentum does not
// overshoot against the new landscape.
func (o *Optimizer) Restart() {
	o.a = 1
	copy(o.uPrev, o.u)
	copy(o.vPrev, o.v)
	// The next Step does not read this gradient (it compares gradients
	// from its second iteration on), but the evaluation stays: an oracle
	// that writes positions as it evaluates — the placement engine's
	// does — hands the caller the reference point, and the placer's HPWL
	// and λ update of the restarting iteration read it there. Dropping it
	// would change the trajectory.
	o.eval(o.v, o.gPrev)
	o.iter = 0
}

// Current returns the major solution u_k (do not modify). The slice is
// valid until the next Step, which rotates it out: copy it to keep it.
func (o *Optimizer) Current() []float64 { return o.u }

// Reference returns the reference solution v_k (do not modify), valid until
// the next Step like Current.
func (o *Optimizer) Reference() []float64 { return o.v }

// Alpha returns the most recent step length.
func (o *Optimizer) Alpha() float64 { return o.alpha }

// normDiff returns the Euclidean norm of a-b, reduced over a fixed shard
// structure so the result is identical for every worker count.
func (o *Optimizer) normDiff(a, b []float64) float64 {
	o.ndA, o.ndB = a, b
	o.team.N(len(o.ndPartial), o.stageND)
	o.ndA, o.ndB = nil, nil
	t := 0.0
	for _, p := range o.ndPartial {
		t += p
	}
	return math.Sqrt(t)
}

// Step performs one accelerated iteration and returns the step length used.
// project, if non-nil, is applied to candidate solutions to keep them in
// the feasible box (e.g., inside the placement region).
func (o *Optimizer) Step(project func(x []float64)) float64 {
	o.iter++

	// Gradient at the current reference point.
	o.eval(o.v, o.g)

	// Inverse-Lipschitz step prediction from the previous reference pair.
	alpha := o.alpha
	if o.iter > 1 {
		dv := o.normDiff(o.v, o.vPrev)
		dg := o.normDiff(o.g, o.gPrev)
		if dg > 1e-30 && dv > 0 {
			alpha = dv / dg
		}
	}
	if alpha > o.AlphaMax {
		alpha = o.AlphaMax
	}

	aNext := (1 + math.Sqrt(4*o.a*o.a+1)) / 2
	o.stepCoef = (o.a - 1) / aNext

	for bt := 0; ; bt++ {
		o.stepAlpha = alpha
		o.team.Shards(len(o.u), o.stageU)
		if project != nil {
			project(o.uNext)
		}
		o.team.Shards(len(o.u), o.stageV)
		if project != nil {
			project(o.vNext)
		}
		if bt >= o.MaxBacktrack {
			break
		}
		// Backtracking: re-estimate the Lipschitz step at the candidate
		// reference point; accept if the prediction was not optimistic.
		o.eval(o.vNext, o.gNext)
		dv := o.normDiff(o.vNext, o.v)
		dg := o.normDiff(o.gNext, o.g)
		if dg <= 1e-30 || dv <= 0 {
			break
		}
		alphaHat := dv / dg
		if alphaHat >= 0.95*alpha {
			break
		}
		alpha = alphaHat
	}

	// Rotate instead of copying: the candidates become the iterates, the
	// iterates their predecessors, and the stale predecessors the next
	// candidates' buffers (every entry of those is rewritten before it is
	// read; g is rewritten by the next Step's eval).
	o.uPrev, o.u, o.uNext = o.u, o.uNext, o.uPrev
	o.vPrev, o.v, o.vNext = o.v, o.vNext, o.vPrev
	o.gPrev, o.g = o.g, o.gPrev
	o.a = aNext
	o.alpha = alpha
	return alpha
}
