// Package dp implements detailed placement: post-legalization wirelength
// refinement by single-cell moves into row gaps and adjacent-cell swaps.
//
// Commercial flows spend a large fraction of their runtime here, which is
// how the commercial comparator of Table II gets its wirelength edge; the
// PUFFER flow runs a padding-preserving variant so the white space
// injected for routability survives refinement (the consistency argument
// of Sec. III-D).
package dp

import (
	"context"
	"fmt"
	"math"
	"sort"

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

// DefaultConfig returns a single-pass refinement.
func DefaultConfig() Config {
	return Config{Passes: 1, WindowSites: 40}
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
	id int
	x  float64 // physical lower-left x
	w  float64 // physical width
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
	return refine(ctx, d, cfg, findGap)
}

// gapFinder is findGap's signature; the tests run refine over the
// copy-and-sort search findGap replaced.
type gapFinder func(d *netlist.Design, cells, obs []rowCell, rc rowCell, m, targetX float64, fb geom.Rect, siteW, window float64, preserve bool) (float64, bool)

func refine(ctx context.Context, d *netlist.Design, cfg Config, gap gapFinder) (Result, error) {
	res := Result{HPWLBefore: d.HPWL(), HPWLAfter: 0}
	if cfg.Passes <= 0 {
		res.HPWLAfter = res.HPWLBefore
		return res, nil
	}
	siteW := d.SiteWidth
	if siteW <= 0 || d.RowHeight <= 0 {
		return res, fmt.Errorf("dp: design lacks site/row geometry")
	}

	// Row occupancy, keyed by quantized y.
	rows := map[int64][]rowCell{}
	rowKey := func(y float64) int64 {
		return int64(math.Round((y - d.Region.Lo.Y) / d.RowHeight))
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		k := rowKey(c.Y)
		rows[k] = append(rows[k], rowCell{id: i, x: c.X, w: c.W})
	}
	for k := range rows {
		sort.Slice(rows[k], func(a, b int) bool { return rows[k][a].x < rows[k][b].x })
	}
	// Fixed obstacles per row. Fixed cells need not be row-aligned, so the
	// covered row range uses floor semantics over the outline.
	obstacles := map[int64][]rowCell{}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed {
			continue
		}
		r := c.Rect()
		k0 := int64(math.Floor((r.Lo.Y - d.Region.Lo.Y) / d.RowHeight))
		k1 := int64(math.Ceil((r.Hi.Y-d.Region.Lo.Y)/d.RowHeight)) - 1
		for k := k0; k <= k1; k++ {
			obstacles[k] = append(obstacles[k], rowCell{id: -1, x: c.X, w: c.W})
		}
	}
	for _, obs := range obstacles {
		sort.SliceStable(obs, func(a, b int) bool { return obs[a].x < obs[b].x })
	}

	margin := func(id int) float64 {
		if !cfg.PreservePadding {
			return 0
		}
		return d.Cells[id].PadW / 2
	}

	window := float64(cfg.WindowSites) * siteW
	for pass := 0; pass < cfg.Passes; pass++ {
		if err := flow.Check(ctx); err != nil {
			res.HPWLAfter = d.HPWL()
			return res, err
		}
		res.Passes++
		moves, swaps := 0, 0
		// Phase 1: slide each cell toward its HPWL-optimal x within its
		// row's free span around it.
		for _, k := range sortedKeys(rows) {
			cells := rows[k]
			for idx := range cells {
				rc := &cells[idx]
				c := &d.Cells[rc.id]
				m := margin(rc.id)
				// Free span: between the neighbouring cells/obstacles,
				// bounded by the cell's fence when constrained.
				fb := d.FenceRect(rc.id)
				lo := fb.Lo.X + m
				hi := fb.Hi.X - m
				if idx > 0 {
					prev := cells[idx-1]
					lo = math.Max(lo, prev.x+prev.w+margin(prev.id)+m)
				}
				if idx+1 < len(cells) {
					next := cells[idx+1]
					hi = math.Min(hi, next.x-margin(next.id)-m)
				}
				for _, ob := range obstacles[k] {
					if ob.x+ob.w <= rc.x {
						lo = math.Max(lo, ob.x+ob.w+m)
					} else if ob.x >= rc.x+rc.w {
						hi = math.Min(hi, ob.x-m)
					}
				}
				lo = math.Max(lo, rc.x-window)
				hi = math.Min(hi, rc.x+rc.w+window)
				if hi-lo < rc.w-1e-9 {
					continue
				}
				target := optimalX(d, rc.id)
				nx, ok := clampSnap(target, lo, hi-rc.w, rc.x, d.Region.Lo.X, siteW)
				if !ok || nx == rc.x {
					continue
				}
				delta := hpwlDeltaMove(d, rc.id, nx, c.Y)
				if delta < -1e-12 {
					c.X = nx
					rc.x = nx
					moves++
				}
			}
		}
		// Phase 1b: cross-row moves — relocate cells whose HPWL-optimal y
		// is a different row into a free gap there.
		for _, k := range sortedKeys(rows) {
			cells := rows[k]
			for idx := 0; idx < len(cells); idx++ {
				rc := cells[idx]
				c := &d.Cells[rc.id]
				targetY := optimalY(d, rc.id)
				kt := rowKey(targetY)
				if kt == k {
					continue
				}
				// Clamp the row jump to the window and the fence.
				fb := d.FenceRect(rc.id)
				kLo := rowKey(fb.Lo.Y + d.RowHeight - 1e-9)
				kHi := rowKey(fb.Hi.Y - d.RowHeight + 1e-9)
				if kt < kLo {
					kt = kLo
				}
				if kt > kHi {
					kt = kHi
				}
				if kt == k {
					continue
				}
				ny := d.Region.Lo.Y + float64(kt)*d.RowHeight
				m := margin(rc.id)
				nx, ok := gap(d, rows[kt], obstacles[kt], rc, m, optimalX(d, rc.id), fb, siteW, window, cfg.PreservePadding)
				if !ok {
					continue
				}
				delta := hpwlDeltaMove(d, rc.id, nx, ny)
				if delta >= -1e-12 {
					continue
				}
				// Commit: remove from this row, insert into the target.
				c.X, c.Y = nx, ny
				rows[k] = append(cells[:idx], cells[idx+1:]...)
				cells = rows[k]
				idx--
				nr := rows[kt]
				pos := sort.Search(len(nr), func(q int) bool { return nr[q].x > nx })
				nr = append(nr, rowCell{})
				copy(nr[pos+1:], nr[pos:])
				nr[pos] = rowCell{id: rc.id, x: nx, w: rc.w}
				rows[kt] = nr
				moves++
			}
		}
		// Phase 2: adjacent swaps within each row.
		for _, k := range sortedKeys(rows) {
			cells := rows[k]
			for idx := 0; idx+1 < len(cells); idx++ {
				a, b := &cells[idx], &cells[idx+1]
				if cfg.PreservePadding && (d.Cells[a.id].PadW > 0 || d.Cells[b.id].PadW > 0) {
					continue
				}
				if d.Cells[a.id].Fence != d.Cells[b.id].Fence {
					continue // never swap across a fence boundary
				}
				// Consecutive movable cells may straddle a fixed obstacle;
				// never swap across one.
				blocked := false
				for _, ob := range obstacles[k] {
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
				delta := hpwlDeltaSwap(d, a.id, nax, b.id, nbx)
				if delta < -1e-12 {
					d.Cells[a.id].X = nax
					d.Cells[b.id].X = nbx
					a.x, b.x = nax, nbx
					cells[idx], cells[idx+1] = cells[idx+1], cells[idx]
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
	res.HPWLAfter = d.HPWL()
	return res, nil
}

func sortedKeys(m map[int64][]rowCell) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
	return ks
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

// findGap locates a site-aligned position for rc (with margin m on both
// sides) in the given row near targetX, within the fence bounds fb and the
// move window. Returns the chosen x.
//
// The blockers are the row's committed cells plus its fixed obstacles.
// Both lists arrive sorted by x — Refine keeps every row that way and
// sorts the obstacles once — so the sweep merges them in place of
// gathering and sorting a copy per call. Only a zero-width obstacle can
// share a legal cell's x; the cell goes first.
func findGap(d *netlist.Design, cells []rowCell, obs []rowCell, rc rowCell, m, targetX float64, fb geom.Rect, siteW, window float64, preserve bool) (float64, bool) {
	lo := math.Max(fb.Lo.X, targetX-window)
	hi := math.Min(fb.Hi.X, targetX+rc.w+window)
	bestX, bestDist := 0.0, math.Inf(1)
	found := false
	try := func(gLo, gHi float64) {
		gLo = math.Max(gLo+m, lo)
		gHi = math.Min(gHi-m, hi)
		if gHi-gLo < rc.w-1e-9 {
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
	cursor := fb.Lo.X
	for len(cells) > 0 || len(obs) > 0 {
		var b rowCell
		if len(obs) == 0 || (len(cells) > 0 && cells[0].x <= obs[0].x) {
			b, cells = cells[0], cells[1:]
		} else {
			b, obs = obs[0], obs[1:]
		}
		bm := 0.0
		if preserve && b.id >= 0 {
			bm = d.Cells[b.id].PadW / 2
		}
		if b.x-bm > cursor {
			try(cursor, b.x-bm)
		}
		if b.x+b.w+bm > cursor {
			cursor = b.x + b.w + bm
		}
	}
	try(cursor, fb.Hi.X)
	return bestX, found
}

// optimalY returns the median-based HPWL-optimal y for the cell.
func optimalY(d *netlist.Design, ci int) float64 {
	c := &d.Cells[ci]
	var bounds []float64
	for _, pid := range c.Pins {
		net := &d.Nets[d.Pins[pid].Net]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, q := range net.Pins {
			if d.Pins[q].Cell == ci {
				continue
			}
			y := d.PinPos(q).Y
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
		if !math.IsInf(lo, 1) {
			bounds = append(bounds, lo, hi)
		}
	}
	if len(bounds) == 0 {
		return c.Y
	}
	sort.Float64s(bounds)
	mid := (bounds[(len(bounds)-1)/2] + bounds[len(bounds)/2]) / 2
	return mid - c.H/2
}

// optimalX returns the median-based HPWL-optimal x for the cell: the
// median of the bounding intervals of its nets with the cell excluded.
func optimalX(d *netlist.Design, ci int) float64 {
	c := &d.Cells[ci]
	var bounds []float64
	for _, pid := range c.Pins {
		net := &d.Nets[d.Pins[pid].Net]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, q := range net.Pins {
			if d.Pins[q].Cell == ci {
				continue
			}
			x := d.PinPos(q).X
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if !math.IsInf(lo, 1) {
			bounds = append(bounds, lo, hi)
		}
	}
	if len(bounds) == 0 {
		return c.X
	}
	sort.Float64s(bounds)
	mid := (bounds[(len(bounds)-1)/2] + bounds[len(bounds)/2]) / 2
	return mid - c.W/2
}

// netsOf collects the unique nets touching a set of cells.
func netsOf(d *netlist.Design, cells ...int) []int {
	seen := map[int]bool{}
	var out []int
	for _, ci := range cells {
		for _, pid := range d.Cells[ci].Pins {
			n := d.Pins[pid].Net
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

func netsHPWL(d *netlist.Design, nets []int) float64 {
	total := 0.0
	for _, n := range nets {
		w := d.Nets[n].Weight
		if w == 0 {
			w = 1
		}
		bb := d.NetBBox(n)
		total += w * (bb.W() + bb.H())
	}
	return total
}

// hpwlDeltaMove computes the HPWL change of moving cell ci to (nx, ny).
func hpwlDeltaMove(d *netlist.Design, ci int, nx, ny float64) float64 {
	nets := netsOf(d, ci)
	before := netsHPWL(d, nets)
	c := &d.Cells[ci]
	ox, oy := c.X, c.Y
	c.X, c.Y = nx, ny
	after := netsHPWL(d, nets)
	c.X, c.Y = ox, oy
	return after - before
}

// hpwlDeltaSwap computes the HPWL change of placing cell a at ax and cell
// b at bx.
func hpwlDeltaSwap(d *netlist.Design, a int, ax float64, b int, bx float64) float64 {
	nets := netsOf(d, a, b)
	before := netsHPWL(d, nets)
	ca, cb := &d.Cells[a], &d.Cells[b]
	oax, obx := ca.X, cb.X
	ca.X, cb.X = ax, bx
	after := netsHPWL(d, nets)
	ca.X, cb.X = oax, obx
	return after - before
}
