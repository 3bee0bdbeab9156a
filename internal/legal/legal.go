// Package legal implements the white-space-assisted legalization stage of
// the paper (Sec. III-D): the padding inherited from global placement is
// discretized to whole placement sites by the staircase function of
// Eq. 17, the total discrete padding is capped at a fraction of the
// movable area by level-wise relegation, and the cells are then legalized
// with an Abacus-based row algorithm [20] that minimizes quadratic
// displacement. The padded width occupies the row, so the white space ends
// up exactly where global placement wanted it.
package legal

import (
	"context"
	"fmt"
	"math"
	"sort"

	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// Config controls legalization.
type Config struct {
	// Theta is the θ of Eq. 17 (staircase resolution). θ <= 0 inherits
	// no padding: the cells are legalized at their physical widths.
	Theta float64
	// MaxUtil caps total discrete padding area as a fraction of total
	// movable cell area (the paper uses 5%).
	MaxUtil float64
}

// DefaultConfig matches the paper's settings.
func DefaultConfig() Config {
	return Config{Theta: 4, MaxUtil: 0.05}
}

// Result reports legalization quality.
type Result struct {
	TotalDisplacement float64
	MaxDisplacement   float64
	AvgDisplacement   float64
	Cells             int
	PaddingSites      int // total discrete padding applied, in sites
}

// segment is a contiguous span of free sites within a row.
type segment struct {
	rowY  float64
	x0    float64 // aligned to sites
	x1    float64
	fence int          // 1-based fence owning this span; 0 = open region
	cells []*legalCell // committed cells in insertion (= target x) order
	used  float64      // total committed width
	// stack is the Abacus cluster stack after the committed cells: the
	// state a from-scratch Abacus pass over cells would end in. Cell x
	// positions are derived from it once, by settle.
	stack []cluster
}

type legalCell struct {
	id      int
	w       float64 // legal width including discrete padding
	physW   float64 // physical width
	fence   int     // 1-based fence constraint; 0 = unconstrained
	targetX float64 // desired lower-left x of the legal slot
	targetY float64
	x       float64 // placed lower-left x of the legal slot
}

// cluster is the Abacus cluster record.
type cluster struct {
	first, last int // cell index range within segment.cells
	e, q, w     float64
	x           float64
}

// rowIndex groups the segments by row so the search for a cell's segment
// can walk outward from its target row.
type rowIndex struct {
	segs  []*segment // sorted by (rowY, x0); equal-cost candidates tie to the lowest index
	rowY  []float64  // distinct row y, ascending
	start []int      // row r owns segs[start[r]:start[r+1]]

	trials, rowVisits int // search work, asserted on by tests
}

// Legalize places all movable cells of d into legal, overlap-free,
// site-aligned positions. It mutates cell X/Y in place and returns
// displacement statistics measured against the incoming (global placement)
// positions.
func Legalize(d *netlist.Design, cfg Config) (Result, error) {
	return LegalizeCtx(context.Background(), d, cfg)
}

// legalizeCheckEvery is how many Abacus cell insertions run between
// context checks during LegalizeCtx.
const legalizeCheckEvery = 256

// LegalizeCtx is Legalize with cancellation: the context is checked every
// few hundred Abacus insertions and once more before positions are
// written back. Because cell X/Y are only mutated in that final
// write-back, a canceled legalization returns an error wrapping
// flow.ErrCanceled with the design's incoming positions fully intact.
func LegalizeCtx(ctx context.Context, d *netlist.Design, cfg Config) (Result, error) {
	res, _, err := legalize(ctx, d, cfg)
	return res, err
}

// legalize is LegalizeCtx, also returning the row index so tests can read
// its work counters.
func legalize(ctx context.Context, d *netlist.Design, cfg Config) (Result, *rowIndex, error) {
	var res Result
	movable := d.MovableIDs()
	if len(movable) == 0 {
		return res, nil, nil
	}
	siteW := d.SiteWidth
	rowH := d.RowHeight
	if siteW <= 0 || rowH <= 0 {
		return res, nil, fmt.Errorf("legal: design lacks site/row geometry")
	}

	disPad := discretizePadding(d, movable, cfg)
	for _, s := range disPad {
		res.PaddingSites += s
	}

	segs := buildSegments(d, siteW, rowH)
	if len(segs) == 0 {
		return res, nil, fmt.Errorf("legal: no free row segments")
	}
	ix := newRowIndex(segs)

	cells := sortedCells(d, movable, disPad)
	for k := range cells {
		if k%legalizeCheckEvery == 0 {
			if err := flow.Check(ctx); err != nil {
				return res, ix, err
			}
		}
		if err := ix.placeCell(&cells[k]); err != nil {
			return res, ix, err
		}
	}
	if err := flow.Check(ctx); err != nil {
		return res, ix, err
	}
	err := writeBack(d, ix.segs, len(movable), &res)
	return res, ix, err
}

// sortedCells returns the legalization record of every movable cell, in
// Abacus order (target x, then id), in one slab.
func sortedCells(d *netlist.Design, movable, disPad []int) []legalCell {
	siteW := d.SiteWidth
	cells := make([]legalCell, len(movable))
	for k, ci := range movable {
		c := &d.Cells[ci]
		padW := float64(disPad[k]) * siteW
		cells[k] = legalCell{
			id:      ci,
			w:       snapUp(c.W, siteW) + padW,
			physW:   c.W,
			fence:   c.Fence,
			targetX: c.X - padW/2,
			targetY: c.Y,
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].targetX != cells[j].targetX {
			return cells[i].targetX < cells[j].targetX
		}
		return cells[i].id < cells[j].id
	})
	return cells
}

// writeBack does the final per-segment site alignment and overlap removal,
// then moves the design's cells to their physical positions (each centered
// within its padded slot) and fills in res's displacement statistics.
// Every segment is finalized before the first write, so an error here
// leaves the design untouched too.
func writeBack(d *netlist.Design, segs []*segment, movable int, res *Result) error {
	siteW := d.SiteWidth
	for _, s := range segs {
		if err := finalizeSegment(s, siteW); err != nil {
			return err
		}
	}
	for _, s := range segs {
		for _, lc := range s.cells {
			c := &d.Cells[lc.id]
			// Center the physical cell in its padded slot, keeping it on
			// the site grid (odd discrete padding rounds down).
			off := math.Floor((lc.w-lc.physW)/2/siteW) * siteW
			newX := lc.x + off
			newY := s.rowY
			disp := math.Abs(newX-c.X) + math.Abs(newY-c.Y)
			res.TotalDisplacement += disp
			if disp > res.MaxDisplacement {
				res.MaxDisplacement = disp
			}
			res.Cells++
			c.X = newX
			c.Y = newY
		}
	}
	if res.Cells != movable {
		return fmt.Errorf("legal: placed %d of %d cells", res.Cells, movable)
	}
	res.AvgDisplacement = res.TotalDisplacement / float64(res.Cells)
	return nil
}

// discretizePadding applies Eq. 17 and the level-wise relegation cap,
// returning the discrete padding (in sites) per movable cell.
func discretizePadding(d *netlist.Design, movable []int, cfg Config) []int {
	out := make([]int, len(movable))
	if cfg.Theta <= 0 {
		return out
	}
	mp := 0.0
	for _, ci := range movable {
		if p := d.Cells[ci].PadW; p > mp {
			mp = p
		}
	}
	if mp <= 0 {
		return out
	}
	for k, ci := range movable {
		p := d.Cells[ci].PadW
		if p <= 0 {
			continue
		}
		out[k] = int(math.Floor(cfg.Theta * (p/mp + 0.5)))
	}

	// Cap: total padding area <= MaxUtil × movable area. Relegate the
	// cells with the smallest analog padding within each discrete level
	// until the constraint holds.
	siteW := d.SiteWidth
	cap := cfg.MaxUtil * d.TotalMovableArea()
	area := func() float64 {
		a := 0.0
		for k, ci := range movable {
			a += float64(out[k]) * siteW * d.Cells[ci].H
		}
		return a
	}
	if area() <= cap {
		return out
	}
	// Order cells within each level by ascending PadW.
	byLevel := map[int][]int{}
	for k := range out {
		if out[k] > 0 {
			byLevel[out[k]] = append(byLevel[out[k]], k)
		}
	}
	for lvl := range byLevel {
		ks := byLevel[lvl]
		sort.Slice(ks, func(a, b int) bool {
			pa := d.Cells[movable[ks[a]]].PadW
			pb := d.Cells[movable[ks[b]]].PadW
			if pa != pb {
				return pa < pb
			}
			return ks[a] < ks[b]
		})
	}
	cur := area()
	for cur > cap {
		demoted := false
		levels := make([]int, 0, len(byLevel))
		for lvl := range byLevel {
			levels = append(levels, lvl)
		}
		sort.Ints(levels)
		for _, lvl := range levels {
			ks := byLevel[lvl]
			if len(ks) == 0 || lvl == 0 {
				continue
			}
			k := ks[0]
			byLevel[lvl] = ks[1:]
			out[k]--
			cur -= siteW * d.Cells[movable[k]].H
			if out[k] > 0 {
				byLevel[out[k]] = append(byLevel[out[k]], k)
			}
			demoted = true
			if cur <= cap {
				break
			}
		}
		if !demoted {
			break
		}
	}
	return out
}

// buildSegments derives free row segments from the design rows minus fixed
// cell overlaps. If the design has no explicit rows, uniform rows covering
// the region are synthesized.
func buildSegments(d *netlist.Design, siteW, rowH float64) []*segment {
	rows := d.Rows
	if len(rows) == 0 {
		nRows := int(d.Region.H() / rowH)
		for r := 0; r < nRows; r++ {
			rows = append(rows, netlist.Row{
				X: d.Region.Lo.X, Y: d.Region.Lo.Y + float64(r)*rowH,
				W: d.Region.W(), SiteW: siteW,
			})
		}
	}
	// Fixed cells block row spans; collect them once, in x order.
	var fixed []*netlist.Cell
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			fixed = append(fixed, &d.Cells[i])
		}
	}
	sort.SliceStable(fixed, func(a, b int) bool { return fixed[a].X < fixed[b].X })
	var segs []*segment
	for _, row := range rows {
		rowRect := geom.RectWH(row.X, row.Y, row.W, rowH)
		x := row.X
		end := row.X + row.W
		emit := func(lo, hi float64) {
			lo = snapUpTo(lo, row.X, siteW)
			hi = snapDownTo(hi, row.X, siteW)
			if hi-lo >= siteW {
				segs = append(segs, &segment{rowY: row.Y, x0: lo, x1: hi})
			}
		}
		for _, c := range fixed {
			if !c.Rect().Overlaps(rowRect) {
				continue
			}
			if c.X > x {
				emit(x, math.Min(c.X, end))
			}
			if hi := c.X + c.W; hi > x {
				x = hi
			}
			if x >= end {
				break
			}
		}
		if x < end {
			emit(x, end)
		}
	}
	return splitByFences(d, segs, siteW, rowH)
}

// splitByFences carves row segments at fence boundaries. A sub-span whose
// row lies fully inside a fence vertically is owned by that fence
// (exclusive); a sub-span only partially covered vertically is unusable
// and dropped; everything else stays open.
func splitByFences(d *netlist.Design, segs []*segment, siteW, rowH float64) []*segment {
	if len(d.Fences) == 0 {
		return segs
	}
	var out []*segment
	for _, s := range segs {
		type span struct {
			x0, x1 float64
			fence  int // -1 = unusable
		}
		spans := []span{{s.x0, s.x1, 0}}
		for fi, f := range d.Fences {
			fr := f.Rect
			rowRect := geom.RectWH(s.x0, s.rowY, s.x1-s.x0, rowH)
			if !fr.Overlaps(rowRect) {
				continue
			}
			fullV := fr.Lo.Y <= s.rowY+1e-9 && fr.Hi.Y >= s.rowY+rowH-1e-9
			owner := fi + 1
			if !fullV {
				owner = -1 // partial vertical coverage: unusable strip
			}
			var next []span
			for _, sp := range spans {
				if sp.fence != 0 { // already claimed or dropped
					next = append(next, sp)
					continue
				}
				lo := math.Max(sp.x0, fr.Lo.X)
				hi := math.Min(sp.x1, fr.Hi.X)
				if hi <= lo { // no horizontal overlap
					next = append(next, sp)
					continue
				}
				if sp.x0 < lo {
					next = append(next, span{sp.x0, lo, 0})
				}
				next = append(next, span{lo, hi, owner})
				if hi < sp.x1 {
					next = append(next, span{hi, sp.x1, 0})
				}
			}
			spans = next
		}
		for _, sp := range spans {
			if sp.fence < 0 {
				continue
			}
			x0 := snapUpTo(sp.x0, s.x0, siteW)
			x1 := snapDownTo(sp.x1, s.x0, siteW)
			if x1-x0 < siteW {
				continue
			}
			out = append(out, &segment{rowY: s.rowY, x0: x0, x1: x1, fence: sp.fence})
		}
	}
	return out
}

func snapUp(v, unit float64) float64 {
	return math.Ceil(v/unit-1e-9) * unit
}

func snapUpTo(v, origin, unit float64) float64 {
	return origin + math.Ceil((v-origin)/unit-1e-9)*unit
}

func snapDownTo(v, origin, unit float64) float64 {
	return origin + math.Floor((v-origin)/unit+1e-9)*unit
}

// newRowIndex sorts segs by (rowY, x0) and groups them into rows.
func newRowIndex(segs []*segment) *rowIndex {
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].rowY != segs[j].rowY {
			return segs[i].rowY < segs[j].rowY
		}
		return segs[i].x0 < segs[j].x0
	})
	ix := &rowIndex{segs: segs}
	for si, s := range segs {
		if si == 0 || s.rowY != segs[si-1].rowY {
			ix.rowY = append(ix.rowY, s.rowY)
			ix.start = append(ix.start, si)
		}
	}
	ix.start = append(ix.start, len(segs))
	return ix
}

// candidate is the best placement found so far for one cell: its Abacus
// cost, the segment, and the trial's outcome, kept so that committing it
// does not repeat the collapse.
type candidate struct {
	cost float64
	seg  int
	top  int     // clusters of the segment's stack left untouched
	cl   cluster // the cluster the cell ends up in
}

// placeCell commits lc to the segment minimizing its Abacus cost
// (dx² + dy²), the lowest segment index winning a tie — what a scan over
// all segments in index order keeping the first strict minimum selects.
// Rows are visited outward from the target row; dy² alone only grows in
// either direction, so a direction ends once it cannot beat the best cost.
// Upward rows have higher indices than every segment already seen and so
// cannot win a tie either; downward rows have lower indices and can.
func (ix *rowIndex) placeCell(lc *legalCell) error {
	best := candidate{cost: math.Inf(1), seg: -1}
	r0 := sort.SearchFloat64s(ix.rowY, lc.targetY)
	for r := r0; r < len(ix.rowY); r++ {
		dy := ix.rowY[r] - lc.targetY
		if dy*dy >= best.cost {
			break
		}
		ix.tryRow(r, dy, lc, &best)
	}
	for r := r0 - 1; r >= 0; r-- {
		dy := ix.rowY[r] - lc.targetY
		if dy*dy > best.cost {
			break
		}
		ix.tryRow(r, dy, lc, &best)
	}
	if best.seg < 0 {
		return fmt.Errorf("legal: no segment fits cell %d (w=%.3f)", lc.id, lc.w)
	}
	ix.segs[best.seg].push(lc, best.top, best.cl)
	return nil
}

// tryRow trials lc in every segment of row r that matches its fence and
// has room, updating best.
func (ix *rowIndex) tryRow(r int, dy float64, lc *legalCell, best *candidate) {
	ix.rowVisits++
	for si := ix.start[r]; si < ix.start[r+1]; si++ {
		s := ix.segs[si]
		if s.fence != lc.fence {
			continue // fenced cells only in their fence, open cells outside
		}
		if s.used+lc.w > s.x1-s.x0 {
			continue
		}
		ix.trials++
		x, top, cl := s.trial(lc)
		dx := x - lc.targetX
		cost := dx*dx + dy*dy
		if cost < best.cost || (cost == best.cost && si < best.seg) {
			*best = candidate{cost: cost, seg: si, top: top, cl: cl}
		}
	}
}

// trial runs one Abacus step — append lc, collapse while the new cluster
// overlaps the one before it — against the committed stack without
// modifying it. It returns the x lc would get, how many stack clusters
// stay untouched, and the cluster lc ends up in. The x is summed cell by
// cell from the cluster's left edge, as settle does, so it rounds the
// same way the final position will.
func (s *segment) trial(lc *legalCell) (x float64, top int, cl cluster) {
	n := len(s.cells)
	cl = cluster{first: n, last: n, e: 1, q: lc.targetX, w: lc.w}
	cl.x = clampCluster(cl, s.x0, s.x1)
	top = len(s.stack)
	for top > 0 {
		a := s.stack[top-1]
		if a.x+a.w <= cl.x+1e-12 {
			break
		}
		// Merge cl into a: q accumulates desired positions relative to
		// each cell's offset within the cluster.
		a.q += cl.q - cl.e*a.w
		a.e += cl.e
		a.w += cl.w
		a.last = n
		a.x = clampCluster(a, s.x0, s.x1)
		cl = a
		top--
	}
	x = cl.x
	for _, c := range s.cells[cl.first:] {
		x += c.w
	}
	return x, top, cl
}

// push commits lc with the outcome trial returned for it.
func (s *segment) push(lc *legalCell, top int, cl cluster) {
	s.stack = append(s.stack[:top], cl)
	s.cells = append(s.cells, lc)
	s.used += lc.w
}

// settle derives every committed cell's x from the cluster stack.
func (s *segment) settle() {
	for _, cl := range s.stack {
		x := cl.x
		for _, lc := range s.cells[cl.first : cl.last+1] {
			lc.x = x
			x += lc.w
		}
	}
}

func clampCluster(c cluster, x0, x1 float64) float64 {
	x := c.q / c.e
	if x < x0 {
		x = x0
	}
	if x+c.w > x1 {
		x = x1 - c.w
	}
	return x
}

// finalizeSegment settles the segment's cells, snaps every cell to the
// site grid and removes any residual overlaps introduced by snapping.
func finalizeSegment(s *segment, siteW float64) error {
	s.settle()
	sort.Slice(s.cells, func(i, j int) bool { return s.cells[i].x < s.cells[j].x })
	// Left-to-right: snap and push right.
	cursor := s.x0
	for _, lc := range s.cells {
		x := snapUpTo(math.Max(lc.x, cursor), s.x0, siteW)
		lc.x = x
		cursor = x + lc.w
	}
	// If we ran past the segment end, push back left.
	if cursor > s.x1+1e-9 {
		limit := s.x1
		for i := len(s.cells) - 1; i >= 0; i-- {
			lc := s.cells[i]
			if lc.x+lc.w > limit {
				lc.x = snapDownTo(limit-lc.w, s.x0, siteW)
			}
			limit = lc.x
		}
		if limit < s.x0-1e-9 {
			return fmt.Errorf("legal: internal: %d cells (width %.3f) overflow segment [%.3f, %.3f) of row y=%.3f",
				len(s.cells), s.used, s.x0, s.x1, s.rowY)
		}
	}
	return nil
}
