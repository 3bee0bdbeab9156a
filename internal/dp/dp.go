// Package dp implements detailed placement: post-legalization wirelength
// refinement by single-cell moves into row gaps and adjacent-cell swaps.
//
// Commercial flows spend a large fraction of their runtime here, which is
// how the commercial comparator of Table II gets its wirelength edge; the
// PUFFER flow runs a padding-preserving variant so the white space
// injected for routability survives refinement (the consistency argument
// of Sec. III-D).
//
// Refinement runs on scratch it owns (see refiner): flat pin coordinates,
// per-net extremes with multiplicity and runner-up, and rows indexed by
// row number. Every candidate's optimal position and ΔHPWL come out bit for
// bit what a rescan of the netlist through Design.PinPos and
// Design.NetBBox gives; DESIGN.md §3m has the argument.
package dp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// Config controls refinement.
type Config struct {
	// Passes is the number of full move+swap sweeps.
	Passes int
	// WindowSites bounds how far (in sites) a cell may move per step.
	WindowSites int
	// PreservePadding keeps the white space around padded cells: a padded
	// cell must retain at least PadW/2 clearance on each side, and padded
	// cells do not participate in swaps.
	PreservePadding bool
}

// Result reports what refinement did.
type Result struct {
	Moves      int
	Swaps      int
	Passes     int // full move+swap sweeps actually executed
	HPWLBefore float64
	HPWLAfter  float64
}

// rowCell is one placed cell within a row.
type rowCell struct {
	id  int
	x   float64 // physical lower-left x
	w   float64 // physical width
	pad float64 // the cell's PadW (0 for an obstacle)
}

// Refine improves HPWL in place. The design must already be legalized; the
// result stays legal (row-aligned, site-aligned, overlap-free).
func Refine(d *netlist.Design, cfg Config) (Result, error) {
	return RefineCtx(context.Background(), d, cfg)
}

// RefineCtx is Refine with cancellation: the context is checked before
// each full move+swap pass. Every pass leaves the design legal, so a
// canceled refinement returns the partial Result (with HPWLAfter of the
// completed passes) plus an error wrapping flow.ErrCanceled, and the
// design remains a valid legalized placement.
func RefineCtx(ctx context.Context, d *netlist.Design, cfg Config) (Result, error) {
	if cfg.Passes <= 0 {
		hpwl := d.HPWL()
		return Result{HPWLBefore: hpwl, HPWLAfter: hpwl}, nil
	}
	if d.SiteWidth <= 0 || d.RowHeight <= 0 {
		return Result{HPWLBefore: d.HPWL()}, fmt.Errorf("dp: design lacks site/row geometry")
	}
	r := refiners.Get().(*refiner)
	defer func() {
		r.d = nil
		refiners.Put(r)
	}()
	if err := r.load(d); err != nil {
		return Result{HPWLBefore: d.HPWL()}, err
	}
	return r.refine(ctx, cfg, Result{HPWLBefore: r.hpwl()})
}

// refiners pools refinement scratch across calls, as rsmt pools Builders:
// a warm refiner only grows when a design outgrows it.
var refiners = sync.Pool{New: func() any { return new(refiner) }}

// extremes is one net's pin coordinates along one axis, summarized so that
// the extreme over every pin but one is O(1): lo and hi are the bits
// NetBBox folds to, nLo and nHi count the pins bit-equal to them, and lo2
// and hi2 are the extremes over the remaining pins (±Inf when none). The
// order is the one min and max fold by, with -0 below +0, so a pin at a
// tied or signed-zero extreme is told apart exactly. A NaN pin sets nan,
// and exclusions on that net rescan.
type extremes struct {
	lo, lo2, hi, hi2 float64
	nLo, nHi         int32
	nan              bool
}

// below reports a < b in the order min and max fold by: -0 below +0.
func below(a, b float64) bool {
	return a < b || (a == b && math.Signbit(a) && !math.Signbit(b))
}

func (e *extremes) add(v float64) {
	if v != v {
		e.nan = true
		return
	}
	switch {
	case math.Float64bits(v) == math.Float64bits(e.lo):
		e.nLo++
	case below(v, e.lo):
		e.lo2, e.lo, e.nLo = e.lo, v, 1
	case below(v, e.lo2):
		e.lo2 = v
	}
	switch {
	case math.Float64bits(v) == math.Float64bits(e.hi):
		e.nHi++
	case below(e.hi, v):
		e.hi2, e.hi, e.nHi = e.hi, v, 1
	case below(e.hi2, v):
		e.hi2 = v
	}
}

// without returns the extremes over every pin but one at v (±Inf when v was
// the only pin); the net must not be nan.
func (e *extremes) without(v float64) (lo, hi float64) {
	lo, hi = e.lo, e.hi
	if e.nLo == 1 && math.Float64bits(v) == math.Float64bits(lo) {
		lo = e.lo2
	}
	if e.nHi == 1 && math.Float64bits(v) == math.Float64bits(hi) {
		hi = e.hi2
	}
	return lo, hi
}

// replace moves one pin from old to v in place and reports whether the
// summary is still exact; when it is not (the pin was the sole holder of an
// extreme, or a runner-up, or the net has a NaN) the net must be
// recomputed.
func (e *extremes) replace(old, v float64) bool {
	if math.Float64bits(old) == math.Float64bits(v) {
		return true
	}
	if e.nan || v != v {
		return false
	}
	switch math.Float64bits(old) {
	case math.Float64bits(e.lo2), math.Float64bits(e.hi2):
		return false
	case math.Float64bits(e.lo):
		if e.nLo == 1 {
			return false
		}
		e.nLo--
	}
	if math.Float64bits(old) == math.Float64bits(e.hi) {
		if e.nHi == 1 {
			return false
		}
		e.nHi--
	}
	e.add(v)
	return true
}

// span is the net's NetBBox extent along the axis.
func (e *extremes) span() float64 { return max(0, e.hi-e.lo) }

// netExt is one net's extremes along x and y, and its weight (0 counts
// as 1, as in Design.HPWL).
type netExt struct {
	x, y extremes
	w    float64
}

func (ne *netExt) axis(y bool) *extremes {
	if y {
		return &ne.y
	}
	return &ne.x
}

// refiner is refinement's scratch. Pin coordinates and net extremes change
// only when a move or swap commits; candidates read them.
type refiner struct {
	d *netlist.Design

	px, py []float64 // per pin: the cell origin plus the pin offset, PinPos's bits
	ext    []netExt  // per net

	// Each cell's pins in its pin order, cp[cpOff[i]:cpOff[i+1]], laid out
	// so a candidate reads its cell's pins in sequence.
	cpOff []int32
	cp    []cellPin

	// netsOf's result and per-net bookkeeping, valid for the listed nets:
	// moving counts the listed cells' pins on the net, lone is the cp index
	// of one of them.
	// netsOf skips the work when the cells are the ones it listed last.
	nets         []int
	stamp        []uint32
	gen          uint32
	moving       []int32
	lone         []int32
	lastA, lastB int
	redo         []uint8   // per net: axes (1 x, 2 y) a commit left to recompute
	bounds       []float64 // optimal's median buffer

	// optimal's results per cell and axis, each valid while the versions
	// of the cell's nets — bumped by every commit that moves one of the
	// net's pins along the axis — still sum to what they did.
	verX, verY []uint32
	optX, optY []optimum

	// Rows by row number minus kMin, each sorted by x, and their fixed
	// obstacles. present marks rows phase 1b visits: those holding a cell
	// when the phase began.
	kMin    int64
	rows    [][]rowCell
	obs     [][]rowCell
	present []bool

	// findGap's running right edges per row, rebuilt for cells when a
	// row changed (stale) and it is searched again; valid only when no
	// cell has negative padding (skip).
	cellEnds, obsEnds [][]float64
	stale             []bool
	skip              bool
}

// cellPin is one pin of a cell: its coordinates (px and py's values), its
// offset and net, and whether it is the cell's only pin on that net.
type cellPin struct {
	x, y, dx, dy float64
	pin, net     int32
	solo         bool
}

// optimum is one cached optimal result.
type optimum struct {
	v     float64
	ver   uint64 // the net versions' sum it was computed at
	valid bool
}

// grow returns s resized to n, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (r *refiner) rowKey(y float64) int64 {
	return int64(math.Round((y - r.d.Region.Lo.Y) / r.d.RowHeight))
}

// load fills the scratch from d: pin coordinates, net extremes, and rows
// spanning every row a cell sits in or may be moved to.
func (r *refiner) load(d *netlist.Design) error {
	r.d = d
	r.px = grow(r.px, len(d.Pins))
	r.py = grow(r.py, len(d.Pins))
	for q := range d.Pins {
		p := &d.Pins[q]
		c := &d.Cells[p.Cell]
		r.px[q], r.py[q] = c.X+p.Dx, c.Y+p.Dy
	}
	r.cpOff = grow(r.cpOff, len(d.Cells)+1)
	r.cp = r.cp[:0]
	for i := range d.Cells {
		r.cpOff[i] = int32(len(r.cp))
		for _, pid := range d.Cells[i].Pins {
			p := &d.Pins[pid]
			r.cp = append(r.cp, cellPin{x: r.px[pid], y: r.py[pid], dx: p.Dx, dy: p.Dy, pin: int32(pid), net: int32(p.Net)})
		}
	}
	r.cpOff[len(d.Cells)] = int32(len(r.cp))
	r.ext = grow(r.ext, len(d.Nets))
	for n := range d.Nets {
		r.ext[n].w = 1
		if w := d.Nets[n].Weight; w != 0 {
			r.ext[n].w = w
		}
		r.recompute(n)
	}
	r.stamp = grow(r.stamp, len(d.Nets))
	clear(r.stamp)
	r.gen = 0
	r.lastA, r.lastB = -1, -1
	r.moving = grow(r.moving, len(d.Nets))
	r.lone = grow(r.lone, len(d.Nets))
	r.redo = grow(r.redo, len(d.Nets))
	clear(r.redo)
	r.verX, r.verY = grow(r.verX, len(d.Nets)), grow(r.verY, len(d.Nets))
	clear(r.verX)
	clear(r.verY)
	r.optX, r.optY = grow(r.optX, len(d.Cells)), grow(r.optY, len(d.Cells))
	clear(r.optX)
	clear(r.optY)
	for i := range d.Cells {
		r.netsOf(i, -1)
		for k := r.cpOff[i]; k < r.cpOff[i+1]; k++ {
			r.cp[k].solo = r.moving[r.cp[k].net] == 1
		}
	}
	r.lastA, r.lastB = -1, -1

	// The row range: every movable cell's row and every row phase 1b may
	// clamp a target to (its fence's first and last).
	kMin, kMax := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		fb := d.FenceRect(i)
		for _, k := range [3]int64{r.rowKey(c.Y), r.rowKey(fb.Lo.Y + d.RowHeight - 1e-9), r.rowKey(fb.Hi.Y - d.RowHeight + 1e-9)} {
			kMin, kMax = min(kMin, k), max(kMax, k)
		}
	}
	nRows := 0
	if kMin <= kMax {
		// A legalized design spans its region's rows; a wider span means
		// cells far outside it, which refinement does not take.
		limit := int64(d.Region.H()/d.RowHeight) + int64(len(d.Cells)) + 64
		if span := kMax - kMin; span < 0 || span >= limit {
			return fmt.Errorf("dp: cells span rows %d..%d; refinement needs a legalized design", kMin, kMax)
		}
		nRows = int(kMax-kMin) + 1
	}
	r.kMin = kMin
	r.rows = grow(r.rows, nRows)
	r.obs = grow(r.obs, nRows)
	r.present = grow(r.present, nRows)
	r.cellEnds, r.obsEnds = grow(r.cellEnds, nRows), grow(r.obsEnds, nRows)
	r.stale = grow(r.stale, nRows)
	for i := range r.rows {
		r.rows[i], r.obs[i] = r.rows[i][:0], r.obs[i][:0]
		r.stale[i] = true
	}
	r.skip = true
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed && !(c.PadW >= 0) {
			r.skip = false
		}
	}
	byX := func(a, b rowCell) int {
		switch {
		case a.x < b.x:
			return -1
		case b.x < a.x:
			return 1
		}
		return 0
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed {
			k := r.rowKey(c.Y) - kMin
			r.rows[k] = append(r.rows[k], rowCell{id: i, x: c.X, w: c.W, pad: c.PadW})
		}
	}
	for i := range r.rows {
		// The same pdqsort sort.Slice runs, so tied cells keep their order.
		slices.SortFunc(r.rows[i], byX)
		r.present[i] = len(r.rows[i]) > 0
	}
	// Fixed obstacles per row. Fixed cells need not be row-aligned, so the
	// covered row range uses floor semantics over the outline.
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed || nRows == 0 {
			continue
		}
		rect := c.Rect()
		k0 := int64(math.Floor((rect.Lo.Y - d.Region.Lo.Y) / d.RowHeight))
		k1 := int64(math.Ceil((rect.Hi.Y-d.Region.Lo.Y)/d.RowHeight)) - 1
		for k := max(k0, kMin); k <= min(k1, kMin+int64(nRows)-1); k++ {
			r.obs[k-kMin] = append(r.obs[k-kMin], rowCell{id: -1, x: c.X, w: c.W})
		}
	}
	for i := range r.obs {
		slices.SortStableFunc(r.obs[i], byX)
		r.obsEnds[i] = runningEnds(r.obsEnds[i], r.obs[i], false)
	}
	return nil
}

// gapRow returns row ri as findGap searches it, with its cells' running
// right edges brought up to date.
func (r *refiner) gapRow(ri int64, preserve bool) gapRow {
	if r.stale[ri] {
		r.cellEnds[ri] = runningEnds(r.cellEnds[ri], r.rows[ri], preserve)
		r.stale[ri] = false
	}
	return gapRow{cells: r.rows[ri], obs: r.obs[ri], cellEnds: r.cellEnds[ri], obsEnds: r.obsEnds[ri], skip: r.skip}
}

// recompute rebuilds net n's extremes from the pin coordinates.
func (r *refiner) recompute(n int) {
	r.recomputeAxis(n, false)
	r.recomputeAxis(n, true)
}

// recomputeAxis folds the extremes as NetBBox's min and max do — -0 below
// +0, a NaN wins — then counts the pins bit-equal to them and folds the
// rest into the runner-ups. The folds compare directly: the builtins'
// NaN and signed-zero handling costs more than the branches here.
func (r *refiner) recomputeAxis(n int, y bool) {
	coord, e := r.coords(y), r.ext[n].axis(y)
	pins := r.d.Nets[n].Pins
	if len(pins) == 2 { // two-pin nets are the commonest
		a, b := coord[pins[0]], coord[pins[1]]
		switch {
		case a != a || b != b:
		case math.Float64bits(a) == math.Float64bits(b):
			*e = extremes{lo: a, lo2: math.Inf(1), hi: a, hi2: math.Inf(-1), nLo: 2, nHi: 2}
			return
		case below(b, a):
			a, b = b, a
			fallthrough
		default:
			*e = extremes{lo: a, lo2: b, hi: b, hi2: a, nLo: 1, nHi: 1}
			return
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	nan := false
	for _, q := range pins {
		v := coord[q]
		if v < lo || (v == lo && math.Signbit(v)) {
			lo = v
		}
		if v > hi || (v == hi && !math.Signbit(v)) {
			hi = v
		}
		nan = nan || v != v
	}
	if nan {
		*e = extremes{lo: math.NaN(), hi: math.NaN(), nan: true}
		return
	}
	lo2, hi2 := math.Inf(1), math.Inf(-1)
	var nLo, nHi int32
	bl, bh := math.Float64bits(lo), math.Float64bits(hi)
	for _, q := range pins {
		v := coord[q]
		b := math.Float64bits(v)
		if b == bl {
			nLo++
		} else if v < lo2 || (v == lo2 && math.Signbit(v)) {
			lo2 = v
		}
		if b == bh {
			nHi++
		} else if v > hi2 || (v == hi2 && !math.Signbit(v)) {
			hi2 = v
		}
	}
	*e = extremes{lo: lo, lo2: lo2, hi: hi, hi2: hi2, nLo: nLo, nHi: nHi}
}

// hpwl is Design.HPWL from the net extremes: the same terms, summed in net
// order.
func (r *refiner) hpwl() float64 {
	total := 0.0
	for n := range r.d.Nets {
		ne := &r.ext[n]
		total += ne.w * (ne.x.span() + ne.y.span())
	}
	return total
}

// netsOf lists the nets touching cell a (and b, when b >= 0) in
// first-occurrence order, counting the cells' pins on each.
func (r *refiner) netsOf(a, b int) {
	if a == r.lastA && b == r.lastB {
		return
	}
	r.lastA, r.lastB = a, b
	r.gen++
	if r.gen == 0 {
		clear(r.stamp)
		r.gen = 1
	}
	r.nets = r.nets[:0]
	for _, ci := range [2]int{a, b} {
		if ci < 0 {
			continue
		}
		for k := r.cpOff[ci]; k < r.cpOff[ci+1]; k++ {
			n := r.cp[k].net
			if r.stamp[n] != r.gen {
				r.stamp[n] = r.gen
				r.moving[n] = 0
				r.nets = append(r.nets, int(n))
			}
			r.moving[n]++
			r.lone[n] = k
		}
	}
}

// coords selects the pin coordinates along x (false) or y (true).
func (r *refiner) coords(y bool) []float64 {
	if y {
		return r.py
	}
	return r.px
}

// optimal returns the median-based HPWL-optimal x (or y) for the cell: the
// median of the bounding intervals of its nets with the cell excluded,
// gathered in pin order, as sort.Float64s orders them.
func (r *refiner) optimal(ci int, y bool) float64 {
	m, ver := r.memo(ci, y)
	if m.valid && m.ver == ver {
		return m.v
	}
	c := &r.d.Cells[ci]
	b := r.gather(ci, y)
	if len(b) == 0 {
		if y {
			return c.Y
		}
		return c.X
	}
	mid := median(b)
	v := mid - c.W/2
	if y {
		v = mid - c.H/2
	}
	*m = optimum{v: v, ver: ver, valid: true}
	return v
}

// memo returns the cell's memo entry for the axis and the sum of its nets'
// versions the entry must match.
func (r *refiner) memo(ci int, y bool) (*optimum, uint64) {
	ver, memo := r.verX, r.optX
	if y {
		ver, memo = r.verY, r.optY
	}
	var sum uint64
	for k := r.cpOff[ci]; k < r.cpOff[ci+1]; k++ {
		sum += uint64(ver[r.cp[k].net])
	}
	return &memo[ci], sum
}

// gather fills the bounds buffer with the cell's nets' extremes along the
// axis, its own pins excluded, in pin order.
func (r *refiner) gather(ci int, y bool) []float64 {
	d := r.d
	coord := r.coords(y)
	b := r.bounds[:0]
	for k := r.cpOff[ci]; k < r.cpOff[ci+1]; k++ {
		cp := &r.cp[k]
		n := cp.net
		var lo, hi float64
		if e := r.ext[n].axis(y); cp.solo && !e.nan {
			v := cp.x
			if y {
				v = cp.y
			}
			lo, hi = e.without(v)
		} else {
			lo, hi = math.Inf(1), math.Inf(-1)
			for _, q := range d.Nets[n].Pins {
				if d.Pins[q].Cell != ci {
					lo, hi = min(lo, coord[q]), max(hi, coord[q])
				}
			}
		}
		if !math.IsInf(lo, 1) {
			b = append(b, lo, hi)
		}
	}
	r.bounds = b
	return b
}

// median returns (xs[(n-1)/2] + xs[n/2]) / 2 of xs sorted by
// sort.Float64s, with xs reordered.
//
// sort.Float64s is a pdqsort that hands a slice of at most 12 elements
// straight to an insertion sort comparing by cmp.Less, which is < when
// there is no NaN: a short NaN-free slice gets that insertion sort here,
// shifting instead of swapping, which moves the elements alike. In a
// longer slice only equal values with different bits — -0 and +0 — or a
// NaN can make the bits at a rank depend on the algorithm; without them
// the same insertion sort serves up to a length where sort.Float64s is
// cheaper anyway.
func median(xs []float64) float64 {
	n := len(xs)
	negZero, posZero := false, false
	for _, x := range xs {
		switch {
		case x != x:
			return sortedMedian(xs)
		case x == 0:
			if math.Signbit(x) {
				negZero = true
			} else {
				posZero = true
			}
		}
	}
	if n > 48 || n > 12 && negZero && posZero {
		return sortedMedian(xs)
	}
	for i := 1; i < n; i++ {
		v, j := xs[i], i
		for ; j > 0 && v < xs[j-1]; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func sortedMedian(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// spanAfter is net n's extent along one axis with cell a's origin at va
// and cell b's (b >= 0) at vb: the NetBBox of the moved net.
func (r *refiner) spanAfter(n int, y bool, a int, va float64, b int, vb float64) float64 {
	d := r.d
	coord := r.coords(y)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, q := range d.Nets[n].Pins {
		p := &d.Pins[q]
		v := coord[q]
		off := p.Dx
		if y {
			off = p.Dy
		}
		switch p.Cell {
		case a:
			v = va + off
		case b:
			v = vb + off
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return max(0, hi-lo)
}

// spanMoved is spanAfter for the nets of the last netsOf: the one listed pin
// on a net comes out of the cached extremes, anything else rescans.
func (r *refiner) spanMoved(n int, y bool, a int, va float64, b int, vb float64) float64 {
	e := r.ext[n].axis(y)
	if r.moving[n] != 1 || e.nan {
		return r.spanAfter(n, y, a, va, b, vb)
	}
	k := r.lone[n]
	cp := &r.cp[k]
	v := va
	if k < r.cpOff[a] || k >= r.cpOff[a+1] {
		v = vb
	}
	old := cp.x
	if y {
		v += cp.dy
		old = cp.y
	} else {
		v += cp.dx
	}
	lo, hi := e.without(old)
	return max(0, max(hi, v)-min(lo, v))
}

// deltaMove is the HPWL change of moving cell ci to (nx, ny), summed over
// its nets in first-occurrence order as a full NetBBox pass before and
// after would sum it.
func (r *refiner) deltaMove(ci int, nx, ny float64) float64 {
	r.netsOf(ci, -1)
	sameY := math.Float64bits(ny) == math.Float64bits(r.d.Cells[ci].Y)
	before, after := 0.0, 0.0
	for _, n := range r.nets {
		ne := &r.ext[n]
		wy := ne.y.span()
		before += ne.w * (ne.x.span() + wy)
		if !sameY {
			wy = r.spanMoved(n, true, ci, ny, -1, 0)
		}
		after += ne.w * (r.spanMoved(n, false, ci, nx, -1, 0) + wy)
	}
	return after - before
}

// deltaSwap is the HPWL change of placing cell a at ax and cell b at bx
// (both keep their y).
func (r *refiner) deltaSwap(a int, ax float64, b int, bx float64) float64 {
	r.netsOf(a, b)
	before, after := 0.0, 0.0
	for _, n := range r.nets {
		ne := &r.ext[n]
		wy := ne.y.span()
		before += ne.w * (ne.x.span() + wy)
		after += ne.w * (r.spanMoved(n, false, a, ax, b, bx) + wy)
	}
	return after - before
}

// place sets cell ci's origin and its pins' coordinates, updating each
// net's extremes in place where that stays exact and marking it stale
// where it does not.
func (r *refiner) place(ci int, x, y float64) {
	c := &r.d.Cells[ci]
	c.X, c.Y = x, y
	for k := r.cpOff[ci]; k < r.cpOff[ci+1]; k++ {
		cp := &r.cp[k]
		n := cp.net
		vx, vy := x+cp.dx, y+cp.dy
		if math.Float64bits(vx) != math.Float64bits(cp.x) {
			r.verX[n]++
			if !r.ext[n].x.replace(cp.x, vx) {
				r.redo[n] |= 1
			}
		}
		if math.Float64bits(vy) != math.Float64bits(cp.y) {
			r.verY[n]++
			if !r.ext[n].y.replace(cp.y, vy) {
				r.redo[n] |= 2
			}
		}
		cp.x, cp.y = vx, vy
		r.px[cp.pin], r.py[cp.pin] = vx, vy
	}
}

// commit moves cell a to (ax, ay) and, when b >= 0, cell b to bx in its
// row, then recomputes the extremes the moves left stale.
func (r *refiner) commit(a int, ax, ay float64, b int, bx float64) {
	r.place(a, ax, ay)
	if b >= 0 {
		r.place(b, bx, r.d.Cells[b].Y)
	}
	r.netsOf(a, b)
	for _, n := range r.nets {
		if s := r.redo[n]; s != 0 {
			r.redo[n] = 0
			if s&1 != 0 {
				r.recomputeAxis(n, false)
			}
			if s&2 != 0 {
				r.recomputeAxis(n, true)
			}
		}
	}
}

func (r *refiner) refine(ctx context.Context, cfg Config, res Result) (Result, error) {
	d := r.d
	siteW := d.SiteWidth
	margin := func(rc rowCell) float64 {
		if !cfg.PreservePadding {
			return 0
		}
		return rc.pad / 2
	}

	window := float64(cfg.WindowSites) * siteW
	for pass := 0; pass < cfg.Passes; pass++ {
		if err := flow.Check(ctx); err != nil {
			res.HPWLAfter = r.hpwl()
			return res, err
		}
		res.Passes++
		moves, swaps := 0, 0
		// Phase 1: slide each cell toward its HPWL-optimal x within its
		// row's free span around it.
		for ri, cells := range r.rows {
			obs := r.obs[ri]
			for idx := range cells {
				rc := &cells[idx]
				c := &d.Cells[rc.id]
				m := margin(*rc)
				// Free span: between the neighbouring cells/obstacles,
				// bounded by the cell's fence when constrained.
				fb := d.FenceRect(rc.id)
				lo := fb.Lo.X + m
				hi := fb.Hi.X - m
				if idx > 0 {
					prev := cells[idx-1]
					lo = max(lo, prev.x+prev.w+margin(prev)+m)
				}
				if idx+1 < len(cells) {
					next := cells[idx+1]
					hi = min(hi, next.x-margin(next)-m)
				}
				for _, ob := range obs {
					if ob.x+ob.w <= rc.x {
						lo = max(lo, ob.x+ob.w+m)
					} else if ob.x >= rc.x+rc.w {
						hi = min(hi, ob.x-m)
					}
				}
				lo = max(lo, rc.x-window)
				hi = min(hi, rc.x+rc.w+window)
				if hi-lo < rc.w-1e-9 {
					continue
				}
				// A span with one site position, or none, snaps every
				// target alike: the cell's optimum is not needed.
				target := lo
				if !snapsAlike(lo, hi-rc.w, d.Region.Lo.X, siteW) {
					target = r.optimal(rc.id, false)
				}
				nx, ok := clampSnap(target, lo, hi-rc.w, rc.x, d.Region.Lo.X, siteW)
				if !ok || nx == rc.x {
					continue
				}
				if r.deltaMove(rc.id, nx, c.Y) < -1e-12 {
					r.commit(rc.id, nx, c.Y, -1, 0)
					rc.x = nx
					r.stale[ri] = true
					moves++
				}
			}
		}
		// Phase 1b: cross-row moves — relocate cells whose HPWL-optimal y
		// is a different row into a free gap there. A row that first
		// receives a cell during the phase is visited from phase 2 on.
		for ri := range r.rows {
			if !r.present[ri] {
				continue
			}
			k := r.kMin + int64(ri)
			cells := r.rows[ri]
			for idx := 0; idx < len(cells); idx++ {
				rc := cells[idx]
				kt := r.rowKey(r.optimal(rc.id, true))
				if kt == k {
					continue
				}
				// Clamp the row jump to the window and the fence.
				fb := d.FenceRect(rc.id)
				kLo := r.rowKey(fb.Lo.Y + d.RowHeight - 1e-9)
				kHi := r.rowKey(fb.Hi.Y - d.RowHeight + 1e-9)
				if kt < kLo {
					kt = kLo
				}
				if kt > kHi {
					kt = kHi
				}
				if kt == k {
					continue
				}
				ti := kt - r.kMin
				ny := d.Region.Lo.Y + float64(kt)*d.RowHeight
				m := margin(rc)
				nx, ok := findGap(d, r.gapRow(ti, cfg.PreservePadding), rc, m, r.optimal(rc.id, false), fb, siteW, window, cfg.PreservePadding)
				if !ok || r.deltaMove(rc.id, nx, ny) >= -1e-12 {
					continue
				}
				// Commit: remove from this row, insert into the target.
				r.commit(rc.id, nx, ny, -1, 0)
				r.rows[ri] = append(cells[:idx], cells[idx+1:]...)
				r.stale[ri], r.stale[ti] = true, true
				cells = r.rows[ri]
				idx--
				nr := r.rows[ti]
				pos, n := 0, len(nr) // first cell right of nx
				for pos < n {
					if h := int(uint(pos+n) >> 1); nr[h].x > nx {
						n = h
					} else {
						pos = h + 1
					}
				}
				nr = append(nr, rowCell{})
				copy(nr[pos+1:], nr[pos:])
				nr[pos] = rowCell{id: rc.id, x: nx, w: rc.w, pad: rc.pad}
				r.rows[ti] = nr
				moves++
			}
		}
		for ri, cells := range r.rows {
			r.present[ri] = r.present[ri] || len(cells) > 0
		}
		// Phase 2: adjacent swaps within each row.
		for ri, cells := range r.rows {
			for idx := 0; idx+1 < len(cells); idx++ {
				a, b := &cells[idx], &cells[idx+1]
				if cfg.PreservePadding && (a.pad > 0 || b.pad > 0) {
					continue
				}
				if d.Cells[a.id].Fence != d.Cells[b.id].Fence {
					continue // never swap across a fence boundary
				}
				// Consecutive movable cells may straddle a fixed obstacle;
				// never swap across one.
				blocked := false
				for _, ob := range r.obs[ri] {
					if ob.x < b.x+b.w && ob.x+ob.w > a.x {
						blocked = true
						break
					}
				}
				if blocked {
					continue
				}
				// Swap order: b takes a's left edge, a abuts after b.
				// Total occupied span is unchanged, so legality holds.
				nbx := a.x
				nax := a.x + b.w
				if nax+a.w > b.x+b.w+1e-9 {
					continue // would spill past the old right edge
				}
				if r.deltaSwap(a.id, nax, b.id, nbx) < -1e-12 {
					r.commit(a.id, nax, d.Cells[a.id].Y, b.id, nbx)
					a.x, b.x = nax, nbx
					cells[idx], cells[idx+1] = cells[idx+1], cells[idx]
					r.stale[ri] = true
					swaps++
				}
			}
		}
		res.Moves += moves
		res.Swaps += swaps
		if moves+swaps == 0 {
			break
		}
	}
	res.HPWLAfter = r.hpwl()
	return res, nil
}

// clampSnap clamps v to [lo, hi], snaps it to the site grid, and reports
// whether a legal snapped position exists; fallback keeps the cell where
// it is.
func clampSnap(v, lo, hi, oldX, origin, siteW float64) (float64, bool) {
	if hi < lo {
		return oldX, false
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	s := origin + math.Round((v-origin)/siteW)*siteW
	if s < lo-1e-9 {
		s += siteW
	}
	if s > hi+1e-9 {
		s -= siteW
	}
	if s < lo-1e-9 || s > hi+1e-9 {
		return oldX, false
	}
	return s, true
}

// snapsAlike reports whether clampSnap gives every v the same result over
// [lo, hi]: the span is empty, or its ends round to one site — v is
// clamped into the span and the rounding is monotone, so every v rounds to
// that site.
func snapsAlike(lo, hi, origin, siteW float64) bool {
	return hi < lo || math.Round((lo-origin)/siteW) == math.Round((hi-origin)/siteW)
}

// gapRow is one row as findGap searches it: its cells and its obstacles,
// each sorted by x, and each list's running maximum right edge, padding
// margins included when preserving. skip says the edges may be used: no
// blocker has a negative margin.
type gapRow struct {
	cells, obs        []rowCell
	cellEnds, obsEnds []float64
	skip              bool
}

// runningEnds fills dst with the running maximum of the blockers' right
// edges as findGap's sweep computes them.
func runningEnds(dst []float64, blockers []rowCell, preserve bool) []float64 {
	dst = dst[:0]
	end := math.Inf(-1)
	for _, b := range blockers {
		bm := 0.0
		if preserve && b.id >= 0 {
			bm = b.pad / 2
		}
		if e := b.x + b.w + bm; e > end {
			end = e
		}
		dst = append(dst, end)
	}
	return dst
}

// findGap locates a site-aligned position for rc (with margin m on both
// sides) in the given row near targetX, within the fence bounds fb and the
// move window. Returns the chosen x.
//
// The blockers are the row's committed cells plus its fixed obstacles,
// swept in x order; the gaps between them are tried, clipped to the
// window [lo, hi]. A blocker whose x lies less than the cell's width right
// of lo ends a gap no try can fit the cell in (margins are non-negative),
// so the sweep starts after the blockers that do: its cursor — the
// greatest right edge swept so far — is seeded from the running edges,
// exact whenever the seed is not zero (only a zero can be tied by a value
// with other bits; then the sweep starts at the row's first blocker).
// Only a zero-width obstacle can share a legal cell's x; the cell goes
// first. The cursor only grows and every later gap starts at it, so the
// sweep stops once the window's right edge leaves no room right of it.
func findGap(d *netlist.Design, row gapRow, rc rowCell, m, targetX float64, fb geom.Rect, siteW, window float64, preserve bool) (float64, bool) {
	lo := max(fb.Lo.X, targetX-window)
	hi := min(fb.Hi.X, targetX+rc.w+window)
	need := rc.w - 1e-9
	bestX, bestDist := 0.0, math.Inf(1)
	found := false
	if hi-lo < need {
		return bestX, found // every gap is clipped to [lo, hi]
	}
	try := func(gLo, gHi float64) {
		gLo = max(gLo+m, lo)
		gHi = min(gHi-m, hi)
		if gHi-gLo < need {
			return
		}
		if nx, ok := clampSnap(targetX, gLo, gHi-rc.w, rc.x, d.Region.Lo.X, siteW); ok {
			if dist := math.Abs(nx - targetX); dist < bestDist {
				bestDist = dist
				bestX = nx
				found = true
			}
		}
	}
	cells, obs := row.cells, row.obs
	cursor := fb.Lo.X
	if row.skip && m >= 0 && len(row.cellEnds) == len(cells) && len(row.obsEnds) == len(obs) {
		jc := sort.Search(len(cells), func(i int) bool { return !(cells[i].x-lo < need) })
		jo := sort.Search(len(obs), func(i int) bool { return !(obs[i].x-lo < need) })
		seed := cursor
		if jc > 0 && row.cellEnds[jc-1] > seed {
			seed = row.cellEnds[jc-1]
		}
		if jo > 0 && row.obsEnds[jo-1] > seed {
			seed = row.obsEnds[jo-1]
		}
		if seed != 0 {
			cursor, cells, obs = seed, cells[jc:], obs[jo:]
			if hi-(cursor+m) < need {
				return bestX, found
			}
		}
	}
	for len(cells) > 0 || len(obs) > 0 {
		var b rowCell
		if len(obs) == 0 || (len(cells) > 0 && cells[0].x <= obs[0].x) {
			b, cells = cells[0], cells[1:]
		} else {
			b, obs = obs[0], obs[1:]
		}
		bm := 0.0
		if preserve && b.id >= 0 {
			bm = b.pad / 2
		}
		if b.x-bm > cursor {
			try(cursor, b.x-bm)
		}
		if b.x+b.w+bm > cursor {
			cursor = b.x + b.w + bm
			// Every later try's gap lies within [cursor+m, hi].
			if hi-(cursor+m) < need {
				return bestX, found
			}
		}
	}
	try(cursor, fb.Hi.X)
	return bestX, found
}
