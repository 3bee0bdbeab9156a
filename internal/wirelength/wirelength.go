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
//   - New copies every net's pins into contiguous net-major arrays (owning
//     cell, Dx, Dy), so the per-net pass streams its pins instead of
//     chasing net → pin → cell. The cell origins it adds them to live in
//     compact cellX/cellY arrays: a sharded pre-pass copies them from the
//     design (WirelengthAndGrad, Wirelength, HPWL), or the placement
//     engine writes them itself (Origins, GradAtOrigins, HPWLAtOrigins). A
//     pin is cellX[cell]+Dx, the addition Design.PinPos does: same bits.
//   - Each net writes its smooth length into a per-net slot and its pin
//     gradients into PER-PIN slots, laid out net-major like the pins
//     (every pin belongs to exactly one net, so these writes are disjoint
//     for any net partition — no per-worker accumulator grids and no merge
//     pass are needed).
//   - A second sharded phase reduces pin gradients into cell gradients,
//     reading each cell's slots through a cell → slot index kept in the
//     netlist's pin order, so every cell sums its pins in that fixed order.
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

	// Net-major pins: net n's pins are slots [netStart[n], netStart[n+1]),
	// in its netlist order, with their owning cell and offset. Each cell's
	// slots are cellSlot[cellStart[c]:cellStart[c+1]], in the order of the
	// cell's own pin list; a pin no net lists reads the always-zero slot
	// past the last net's.
	netStart, pinCell   []int32
	pinDx, pinDy        []float64
	cellStart, cellSlot []int32

	cellX, cellY []float64 // cell origins as of the in-flight evaluation
	slotGX       []float64 // per-pin gradient slots, net-major
	slotGY       []float64
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

// New creates a WA wirelength model for design d with smoothing γ. It
// copies d's connectivity (which pins each net holds, their cells and
// offsets) once; net weights and cell positions are read at every
// evaluation.
func New(d *netlist.Design, gamma float64) *Model {
	m := &Model{
		d:     d,
		Gamma: gamma,
		team:  par.NewTeam(1),
		cellX: make([]float64, len(d.Cells)),
		cellY: make([]float64, len(d.Cells)),
		wlNet: make([]float64, len(d.Nets)),
	}
	m.buildPins()
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

// buildPins lays the pins out net-major and indexes each cell's slots.
func (m *Model) buildPins() {
	d := m.d
	m.netStart = make([]int32, len(d.Nets)+1)
	total := 0
	for n := range d.Nets {
		k := len(d.Nets[n].Pins)
		m.maxPins = max(m.maxPins, k)
		total += k
		m.netStart[n+1] = int32(total)
	}
	m.pinCell = make([]int32, total)
	m.pinDx, m.pinDy = make([]float64, total), make([]float64, total)
	m.slotGX, m.slotGY = make([]float64, total+1), make([]float64, total+1)
	slotOf := make([]int32, len(d.Pins))
	for pid := range slotOf {
		slotOf[pid] = int32(total) // the zero slot, unless a net lists the pin
	}
	for n := range d.Nets {
		for i, pid := range d.Nets[n].Pins {
			s := m.netStart[n] + int32(i)
			pin := &d.Pins[pid]
			m.pinCell[s], m.pinDx[s], m.pinDy[s] = int32(pin.Cell), pin.Dx, pin.Dy
			slotOf[pid] = s
		}
	}
	m.cellStart = make([]int32, len(d.Cells)+1)
	m.cellSlot = make([]int32, 0, len(d.Pins))
	for c := range d.Cells {
		for _, pid := range d.Cells[c].Pins {
			m.cellSlot = append(m.cellSlot, slotOf[pid])
		}
		m.cellStart[c+1] = int32(len(m.cellSlot))
	}
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

func (m *Model) bindStages() {
	// Pre-pass: snapshot the cell origins the net passes read.
	m.stageOrigins = func(w, lo, hi int) {
		for c := lo; c < hi; c++ {
			m.cellX[c], m.cellY[c] = m.d.Cells[c].X, m.d.Cells[c].Y
		}
	}
	// Per-net phase: stage pin coordinates, evaluate both axes, assign the
	// per-net length slot and (when wanted) the net's gradient slots. Every
	// write is keyed by a net or one of its slots, so any net partition
	// yields the same bits. Slots of skipped (<2 pin) nets keep their zero
	// from New. The weight is read from the design: padding rounds
	// re-weight nets between evaluations.
	m.stageNets = func(w, lo, hi int) {
		s := &m.scratch[w]
		nets := m.d.Nets
		n0, n1 := spanOf(m.netStart, lo, hi)
		for n := n0; n < n1; n++ {
			a, b := m.netStart[n], m.netStart[n+1]
			k := int(b - a)
			if k < 2 {
				m.wlNet[n] = 0
				continue
			}
			wt := nets[n].Weight
			if wt == 0 {
				wt = 1
			}
			dx, dy := m.pinDx[a:b], m.pinDy[a:b]
			if m.exact {
				m.wlNet[n] = wt * m.netExtent(m.pinCell[a:b], dx, dy)
				continue
			}
			for i, c := range m.pinCell[a:b] {
				s.px[i] = m.cellX[c] + dx[i]
				s.py[i] = m.cellY[c] + dy[i]
			}
			switch {
			case m.wantGrad:
				m.wlNet[n] = float64(wt*m.netAxis(s, s.px[:k], m.slotGX[a:b], wt)) +
					float64(wt*m.netAxis(s, s.py[:k], m.slotGY[a:b], wt))
			default:
				m.wlNet[n] = wt * (m.axisWL(s.px[:k]) + m.axisWL(s.py[:k]))
			}
		}
	}
	// Per-cell reduce: sum each cell's slots in netlist pin order and
	// overwrite the caller's gradient entry. Disjoint per cell.
	m.stageCells = func(w, lo, hi int) {
		c0, c1 := spanOf(m.cellStart, lo, hi)
		for c := c0; c < c1; c++ {
			var gx, gy float64
			for _, s := range m.cellSlot[m.cellStart[c]:m.cellStart[c+1]] {
				gx += m.slotGX[s]
				gy += m.slotGY[s]
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

// slots is the index space the net pass and the per-cell reduce shard: the
// pin slots of a CSR offset array (one at least), so every shard gets about
// the same number of pins however they are spread over nets or cells.
func slots(starts []int32) int { return max(int(starts[len(starts)-1]), 1) }

// spanOf returns the items [i0, i1) of a CSR offset array that a shard of
// slots [lo, hi) owns: those whose first slot lies in it, and — for the
// shard that ends the slots — every item after them, the pinless ones
// included. Every item falls in exactly one shard of any partition.
func spanOf(starts []int32, lo, hi int) (i0, i1 int) {
	n := len(starts) - 1
	i0, i1 = firstAt(starts, lo), n
	if hi < int(starts[n]) {
		i1 = firstAt(starts, hi)
	}
	return i0, i1
}

// firstAt returns the first item whose first slot is at or after s (the
// item count when none is).
func firstAt(starts []int32, s int) int {
	lo, hi := 0, len(starts)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(starts[mid]) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// Origins returns the cell-origin arrays, indexed by cell ID, that
// GradAtOrigins and HPWLAtOrigins read: the lower-left corner of each cell,
// as netlist.Cell's X and Y hold it. SyncOrigins fills them from the
// design; a caller that knows the positions better (the placement engine,
// which resolves them from its optimizer vector) writes them directly.
func (m *Model) Origins() (x, y []float64) { return m.cellX, m.cellY }

// SyncOrigins copies every cell's origin from the design into Origins.
func (m *Model) SyncOrigins() { m.team.Shards(len(m.d.Cells), m.stageOrigins) }

// WirelengthAndGrad computes the total weighted WA wirelength and writes
// each cell's gradient into gradX/gradY, indexed by cell ID. The slices
// must have length len(d.Cells); every entry is overwritten, so callers
// need not zero them between iterations. Gradients are produced for fixed
// cells too; callers simply ignore them.
func (m *Model) WirelengthAndGrad(gradX, gradY []float64) float64 {
	m.SyncOrigins()
	return m.GradAtOrigins(gradX, gradY)
}

// GradAtOrigins is WirelengthAndGrad at the positions in Origins, as
// they stand: it does not read the design's cell positions.
func (m *Model) GradAtOrigins(gradX, gradY []float64) float64 {
	m.gradX, m.gradY = gradX, gradY
	m.wantGrad = true
	m.team.Shards(slots(m.netStart), m.stageNets)
	m.team.Shards(slots(m.cellStart), m.stageCells)
	m.gradX, m.gradY = nil, nil
	m.wantGrad = false
	return m.reduceTotal()
}

// Wirelength computes the total weighted WA wirelength without gradients.
// It shares the per-net evaluation and reduction structure with
// WirelengthAndGrad, so the two totals agree to rounding.
func (m *Model) Wirelength() float64 {
	m.SyncOrigins()
	m.team.Shards(slots(m.netStart), m.stageNets)
	return m.reduceTotal()
}

// HPWL returns the design's exact total weighted half-perimeter wirelength
// at the current cell positions. The per-net extents come from the sharded
// net pass; the total sums them serially in net order, so it equals
// Design.HPWL bit for bit at any worker count.
func (m *Model) HPWL() float64 {
	m.SyncOrigins()
	return m.HPWLAtOrigins()
}

// HPWLAtOrigins is HPWL at the positions in Origins, as they stand.
func (m *Model) HPWLAtOrigins() float64 {
	m.exact = true
	m.team.Shards(slots(m.netStart), m.stageNets)
	m.exact = false
	total := 0.0
	for _, w := range m.wlNet {
		total += w
	}
	return total
}

// netExtent returns the half perimeter of one net's pins — the exact
// length along x plus along y, as Design.NetBBox measures them — reading
// each pin where the net pass stages it, without staging it.
func (m *Model) netExtent(cells []int32, dx, dy []float64) float64 {
	xlo, ylo := m.cellX[cells[0]]+dx[0], m.cellY[cells[0]]+dy[0]
	xhi, yhi := xlo, ylo
	for i, c := range cells[1:] {
		x, y := m.cellX[c]+dx[i+1], m.cellY[c]+dy[i+1]
		xlo, xhi = min(xlo, x), max(xhi, x)
		ylo, yhi = min(ylo, y), max(yhi, y)
	}
	return (xhi - xlo) + (yhi - ylo)
}

// netAxis computes the smooth wirelength of one net along one axis and
// assigns w × ∂W/∂pin into the net's gradient slots, pinG[i] for pin i
// (each pin belongs to exactly one net, so assignment — not accumulation
// — is correct and race-free). Its exponentials come from weight. Every
// product that feeds an add is converted, so no architecture fuses it.
func (m *Model) netAxis(s *axisScratch, xs, pinG []float64, w float64) float64 {
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
		s1p += float64(x * ep)
		s0m += em
		s1m += float64(x * em)
	}
	wp := s1p / s0p // smooth max
	wm := s1m / s0m // smooth min
	for i, x := range xs {
		// ∂wp/∂x_i = e_i·[(1 + x_i/γ) - wp/γ]/S0p, same exponent shift
		// cancels between numerator and denominator.
		gp := s.ep[i] * ((1 + float64(x*inv)) - float64(wp*inv)) / s0p
		gm := s.em[i] * ((1 - float64(x*inv)) + float64(wm*inv)) / s0m
		pinG[i] = w * (gp - gm)
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
		s1p += float64(x * ep)
		s0m += em
		s1m += float64(x * em)
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
