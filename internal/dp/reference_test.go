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

// refineReference is the refinement refine replaced, kept verbatim as the
// oracle (the abacusRow pattern): rows in maps re-keyed per phase, every
// candidate rescanning each net of the cell through Design.PinPos, a map per
// netsOf and two full NetBBox passes per ΔHPWL. refine must return the same
// Result and leave every cell at the same bits.
func refineReference(ctx context.Context, d *netlist.Design, cfg Config) (Result, error) {
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
		for _, k := range refSortedKeys(rows) {
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
				target := refOptimalX(d, rc.id)
				nx, ok := clampSnap(target, lo, hi-rc.w, rc.x, d.Region.Lo.X, siteW)
				if !ok || nx == rc.x {
					continue
				}
				delta := refHPWLDeltaMove(d, rc.id, nx, c.Y)
				if delta < -1e-12 {
					c.X = nx
					rc.x = nx
					moves++
				}
			}
		}
		// Phase 1b: cross-row moves — relocate cells whose HPWL-optimal y
		// is a different row into a free gap there.
		for _, k := range refSortedKeys(rows) {
			cells := rows[k]
			for idx := 0; idx < len(cells); idx++ {
				rc := cells[idx]
				c := &d.Cells[rc.id]
				targetY := refOptimalY(d, rc.id)
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
				nx, ok := refFindGap(d, rows[kt], obstacles[kt], rc, m, refOptimalX(d, rc.id), fb, siteW, window, cfg.PreservePadding)
				if !ok {
					continue
				}
				delta := refHPWLDeltaMove(d, rc.id, nx, ny)
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
		for _, k := range refSortedKeys(rows) {
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
				delta := refHPWLDeltaSwap(d, a.id, nax, b.id, nbx)
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

func refSortedKeys(m map[int64][]rowCell) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
	return ks
}

// refFindGap is the merge sweep the reference refinement ran: it walks the
// target row from its first blocker.
func refFindGap(d *netlist.Design, cells []rowCell, obs []rowCell, rc rowCell, m, targetX float64, fb geom.Rect, siteW, window float64, preserve bool) (float64, bool) {
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

// refOptimalY returns the median-based HPWL-optimal y for the cell.
func refOptimalY(d *netlist.Design, ci int) float64 {
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

// refOptimalX returns the median-based HPWL-optimal x for the cell: the
// median of the bounding intervals of its nets with the cell excluded.
func refOptimalX(d *netlist.Design, ci int) float64 {
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

// refNetsOf collects the unique nets touching a set of cells.
func refNetsOf(d *netlist.Design, cells ...int) []int {
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

func refNetsHPWL(d *netlist.Design, nets []int) float64 {
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

// refHPWLDeltaMove computes the HPWL change of moving cell ci to (nx, ny).
func refHPWLDeltaMove(d *netlist.Design, ci int, nx, ny float64) float64 {
	nets := refNetsOf(d, ci)
	before := refNetsHPWL(d, nets)
	c := &d.Cells[ci]
	ox, oy := c.X, c.Y
	c.X, c.Y = nx, ny
	after := refNetsHPWL(d, nets)
	c.X, c.Y = ox, oy
	return after - before
}

// refHPWLDeltaSwap computes the HPWL change of placing cell a at ax and
// cell b at bx.
func refHPWLDeltaSwap(d *netlist.Design, a int, ax float64, b int, bx float64) float64 {
	nets := refNetsOf(d, a, b)
	before := refNetsHPWL(d, nets)
	ca, cb := &d.Cells[a], &d.Cells[b]
	oax, obx := ca.X, cb.X
	ca.X, cb.X = ax, bx
	after := refNetsHPWL(d, nets)
	ca.X, cb.X = oax, obx
	return after - before
}
