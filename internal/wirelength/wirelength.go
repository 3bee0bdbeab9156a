// Package wirelength implements the weighted-average (WA) wirelength model
// of the placement engine (paper Eq. 2) with analytic gradients.
//
// For a net e and smoothing parameter γ, the x-direction WA wirelength is
//
//	W_ex = Σ xⱼ·e^{xⱼ/γ} / Σ e^{xⱼ/γ}  -  Σ xⱼ·e^{-xⱼ/γ} / Σ e^{-xⱼ/γ},
//
// a differentiable underestimate of the half-perimeter wirelength that
// converges to HPWL as γ → 0. Gradients are accumulated per cell (pin
// offsets are rigid, so ∂pin/∂cell = 1).
//
// # Parallelism and determinism
//
// WirelengthAndGrad is the first phase of every placement iteration, so it
// shards nets across the executors of its team (SetWorkers, SetTeam).
// Determinism does not depend on the worker count:
//
//   - A sharded pre-pass copies every cell origin into compact cellX/cellY
//     arrays, so the per-net pass resolves a pin as cellX[pin.Cell]+pin.Dx
//     (the addition Design.PinPos does, same bits) without pulling a whole
//     netlist.Cell through the cache per pin.
//   - Each net writes its smooth length into a per-net slot and its pin
//     gradients into PER-PIN slots (every pin belongs to exactly one net,
//     so these writes are disjoint for any net partition — no per-worker
//     accumulator grids and no merge pass are needed).
//   - A second sharded phase reduces pin gradients into cell gradients,
//     summing each cell's pins in their fixed netlist order.
//   - The total wirelength sums the per-net slots over a FIXED shard count
//     derived from the net count, merging partials in shard order, so the
//     floating-point grouping never changes with the worker count.
//
// Every phase is a stage body bound once at New and dispatched on the
// model's par.Team, so the steady-state evaluation performs no heap
// allocation — serial, or on a started team.
package wirelength

import (
	"math"

	"puffer/internal/netlist"
	"puffer/internal/par"
)

// Kind names the smooth wirelength model. WA (Eq. 2) is the only one; the
// type, Model.Kind and place.Config.WLModel are inert and survive only
// because the frozen benchmark/kernels.go assigns them — delete with
// ROADMAP item 9.
type Kind int

// WA is the weighted-average model of Eq. 2: an underestimate of HPWL that
// converges from below as γ → 0.
const WA Kind = 0

// maxWLWorkers bounds SetWorkers' team (four maxPins scratch vectors per
// executor) and the fixed reduction shard count.
const maxWLWorkers = 16

// wlNetsPerShard sizes the fixed total-wirelength reduction shards; the
// count depends only on the net count, never the worker count.
const wlNetsPerShard = 2048

// axisScratch is one worker's private per-net staging: pin coordinates and
// exponential weights, sized to the largest net.
type axisScratch struct {
	px, py []float64
	ep, em []float64
}

// Model evaluates smooth wirelength and its gradient over a design. The
// zero value is not usable; construct with New. A Model keeps per-worker
// scratch sized to the largest net plus per-pin/per-net result slots, so
// reuse it across iterations. The model starts serial; SetWorkers or
// SetTeam enables net-sharded evaluation without changing any result bit.
type Model struct {
	d     *netlist.Design
	Gamma float64
	Kind  Kind // inert, see Kind

	team    *par.Team
	scratch []axisScratch
	maxPins int

	cellX, cellY []float64 // cell origins as of the in-flight evaluation
	pinGX, pinGY []float64 // per-pin gradient slots, indexed by pin ID
	wlNet        []float64 // per-net weighted smooth length (or HPWL)
	wlPartial    []float64 // fixed-shard partial sums of wlNet

	// operands of the in-flight evaluation
	gradX, gradY []float64
	wantGrad     bool
	exact        bool // per-net slots get the exact half-perimeter (HPWL)

	// Stage bodies bound once at New so the serial fast path and the
	// sharded path share code without per-call closure allocation.
	stageOrigins func(w, lo, hi int)
	stageNets    func(w, lo, hi int)
	stageCells   func(w, lo, hi int)
	stageSum     func(s int)
}

// New creates a WA wirelength model for design d with smoothing γ.
func New(d *netlist.Design, gamma float64) *Model {
	maxPins := 0
	for i := range d.Nets {
		if n := len(d.Nets[i].Pins); n > maxPins {
			maxPins = n
		}
	}
	m := &Model{
		d:       d,
		Gamma:   gamma,
		team:    par.NewTeam(1),
		maxPins: maxPins,
		cellX:   make([]float64, len(d.Cells)),
		cellY:   make([]float64, len(d.Cells)),
		pinGX:   make([]float64, len(d.Pins)),
		pinGY:   make([]float64, len(d.Pins)),
		wlNet:   make([]float64, len(d.Nets)),
	}
	m.scratch = []axisScratch{m.newScratch()}
	shards := len(d.Nets) / wlNetsPerShard
	if shards < 1 {
		shards = 1
	}
	if shards > maxWLWorkers {
		shards = maxWLWorkers
	}
	m.wlPartial = make([]float64, shards)
	m.bindStages()
	return m
}

func (m *Model) newScratch() axisScratch {
	return axisScratch{
		px: make([]float64, m.maxPins),
		py: make([]float64, m.maxPins),
		ep: make([]float64, m.maxPins),
		em: make([]float64, m.maxPins),
	}
}

// SetWorkers gives the model a team of its own (0 or negative selects
// GOMAXPROCS, clamped to an internal bound; see par.NewTeam). Results never
// depend on the worker count.
func (m *Model) SetWorkers(n int) {
	m.SetTeam(par.NewTeam(min(par.Workers(n), maxWLWorkers)))
}

// SetTeam dispatches the model's stages on t — the placement engine shares
// one team among its kernels — and grows the per-executor scratch pool up
// front so later evaluations stay allocation-free.
func (m *Model) SetTeam(t *par.Team) {
	m.team = t
	for len(m.scratch) < t.Size() {
		m.scratch = append(m.scratch, m.newScratch())
	}
}

// Team reports the team the model dispatches on.
func (m *Model) Team() *par.Team { return m.team }

// Design reports the design this model was built for. Callers that cache a
// Model across runs (warm ECO sessions) use it to check the model still
// matches the design instance before reusing it.
func (m *Model) Design() *netlist.Design { return m.d }

func (m *Model) bindStages() {
	// Pre-pass: snapshot the cell origins the net passes read.
	m.stageOrigins = func(w, lo, hi int) {
		for c := lo; c < hi; c++ {
			m.cellX[c], m.cellY[c] = m.d.Cells[c].X, m.d.Cells[c].Y
		}
	}
	// Per-net phase: stage pin coordinates, evaluate both axes, assign the
	// per-net length slot and (when wanted) the per-pin gradient slots.
	// Every write is keyed by a net or one of its pins, and each pin
	// belongs to exactly one net, so any net partition yields the same
	// bits. Pins of skipped (<2 pin) nets keep their zero from New.
	m.stageNets = func(w, lo, hi int) {
		s := &m.scratch[w]
		d := m.d
		for n := lo; n < hi; n++ {
			net := &d.Nets[n]
			if len(net.Pins) < 2 {
				m.wlNet[n] = 0
				continue
			}
			wt := net.Weight
			if wt == 0 {
				wt = 1
			}
			k := len(net.Pins)
			for i, pid := range net.Pins {
				pin := &d.Pins[pid]
				s.px[i] = m.cellX[pin.Cell] + pin.Dx
				s.py[i] = m.cellY[pin.Cell] + pin.Dy
			}
			switch {
			case m.exact:
				m.wlNet[n] = wt * (extent(s.px[:k]) + extent(s.py[:k]))
			case m.wantGrad:
				m.wlNet[n] = wt*m.netAxis(s, s.px[:k], net.Pins, m.pinGX, wt) +
					wt*m.netAxis(s, s.py[:k], net.Pins, m.pinGY, wt)
			default:
				m.wlNet[n] = wt * (m.axisWL(s.px[:k]) + m.axisWL(s.py[:k]))
			}
		}
	}
	// Per-cell reduce: sum each cell's pin slots in netlist pin order and
	// overwrite the caller's gradient entry. Disjoint per cell.
	m.stageCells = func(w, lo, hi int) {
		d := m.d
		for c := lo; c < hi; c++ {
			var gx, gy float64
			for _, pid := range d.Cells[c].Pins {
				gx += m.pinGX[pid]
				gy += m.pinGY[pid]
			}
			m.gradX[c] = gx
			m.gradY[c] = gy
		}
	}
	// Fixed-shard partial sums of the per-net lengths.
	m.stageSum = func(s int) {
		lo, hi := par.ShardRange(s, len(m.wlPartial), len(m.wlNet))
		t := 0.0
		for i := lo; i < hi; i++ {
			t += m.wlNet[i]
		}
		m.wlPartial[s] = t
	}
}

// reduceTotal sums the per-net lengths over the fixed shard structure and
// merges the partials in shard order.
func (m *Model) reduceTotal() float64 {
	m.team.N(len(m.wlPartial), m.stageSum)
	total := 0.0
	for _, p := range m.wlPartial {
		total += p
	}
	return total
}

// WirelengthAndGrad computes the total weighted WA wirelength and writes
// each cell's gradient into gradX/gradY, indexed by cell ID. The slices
// must have length len(d.Cells); every entry is overwritten, so callers
// need not zero them between iterations. Gradients are produced for fixed
// cells too; callers simply ignore them.
func (m *Model) WirelengthAndGrad(gradX, gradY []float64) float64 {
	m.gradX, m.gradY = gradX, gradY
	m.wantGrad = true
	m.team.Shards(len(m.d.Cells), m.stageOrigins)
	m.team.Shards(len(m.d.Nets), m.stageNets)
	m.team.Shards(len(m.d.Cells), m.stageCells)
	m.gradX, m.gradY = nil, nil
	m.wantGrad = false
	return m.reduceTotal()
}

// Wirelength computes the total weighted WA wirelength without gradients.
// It shares the per-net evaluation and reduction structure with
// WirelengthAndGrad, so the two totals agree to rounding.
func (m *Model) Wirelength() float64 {
	m.team.Shards(len(m.d.Cells), m.stageOrigins)
	m.team.Shards(len(m.d.Nets), m.stageNets)
	return m.reduceTotal()
}

// HPWL returns the design's exact total weighted half-perimeter wirelength
// at the current cell positions. The per-net extents come from the sharded
// net pass; the total sums them serially in net order, so it equals
// Design.HPWL bit for bit at any worker count.
func (m *Model) HPWL() float64 {
	m.exact = true
	m.team.Shards(len(m.d.Cells), m.stageOrigins)
	m.team.Shards(len(m.d.Nets), m.stageNets)
	m.exact = false
	total := 0.0
	for _, w := range m.wlNet {
		total += w
	}
	return total
}

// extent returns max(xs) - min(xs), the exact length of one net along one
// axis, as Design.NetBBox measures it.
func extent(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi - lo
}

// netAxis computes the smooth wirelength of one net along one axis and
// assigns w × ∂W/∂pin into the per-pin slots (each pin belongs to exactly
// one net, so assignment — not accumulation — is correct and race-free).
// Its exponentials come from weight.
func (m *Model) netAxis(s *axisScratch, xs []float64, pins []int, pinG []float64, w float64) float64 {
	inv := 1 / m.Gamma
	xmax, xmin := bounds(xs)
	// Max side: weights e^{(x-xmax)/γ}; min side: weights e^{(xmin-x)/γ}.
	var s0p, s1p, s0m, s1m float64
	edge, finite := math.Exp((xmin-xmax)*inv), inv-inv == 0
	for i, x := range xs {
		ep := weight(x-xmax, inv, edge, x == xmin, finite)
		em := weight(xmin-x, inv, edge, x == xmax, finite)
		s.ep[i] = ep
		s.em[i] = em
		s0p += ep
		s1p += x * ep
		s0m += em
		s1m += x * em
	}
	wp := s1p / s0p // smooth max
	wm := s1m / s0m // smooth min
	for i, x := range xs {
		// ∂wp/∂x_i = e_i·[(1 + x_i/γ) - wp/γ]/S0p, same exponent shift
		// cancels between numerator and denominator.
		gp := s.ep[i] * ((1 + x*inv) - wp*inv) / s0p
		gm := s.em[i] * ((1 - x*inv) + wm*inv) / s0m
		pinG[pins[i]] = w * (gp - gm)
	}
	return wp - wm
}

func (m *Model) axisWL(xs []float64) float64 {
	inv := 1 / m.Gamma
	xmax, xmin := bounds(xs)
	var s0p, s1p, s0m, s1m float64
	edge, finite := math.Exp((xmin-xmax)*inv), inv-inv == 0
	for _, x := range xs {
		ep := weight(x-xmax, inv, edge, x == xmin, finite)
		em := weight(xmin-x, inv, edge, x == xmax, finite)
		s0p += ep
		s1p += x * ep
		s0m += em
		s1m += x * em
	}
	return s1p/s0p - s1m/s0m
}

// bounds returns the largest and smallest of xs, each the first of its
// value met.
func bounds(xs []float64) (xmax, xmin float64) {
	xmax, xmin = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x > xmax {
			xmax = x
		}
		if x < xmin {
			xmin = x
		}
	}
	return xmax, xmin
}

// weight returns e^{d/γ}, d one pin's exponent numerator along one side —
// x-xmax for the max side, xmin-x for the min side — bit for bit what the
// call gives, skipping the call where a net knows the value:
//
//   - at the side's own extreme d is ±0, and with a finite 1/γ so is the
//     exponent: e^{±0} = 1;
//   - at the opposite extreme (atEdge) the exponent is (xmin-xmax)/γ on
//     either side: the pin equals that extreme, so the subtraction has the
//     same operands up to the sign of a zero, which cannot change a nonzero
//     difference — and a zero one was the first case. edge holds it.
func weight(d, inv, edge float64, atEdge, finite bool) float64 {
	switch {
	case d == 0 && finite:
		return 1
	case atEdge:
		return edge
	}
	return math.Exp(d * inv)
}
