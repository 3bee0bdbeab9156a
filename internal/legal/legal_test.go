package legal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// scatteredDesign builds nc cells with global-placement-like positions
// (random, overlapping) in a 64x64 region.
func scatteredDesign(seed int64, nc int, withMacro bool) *netlist.Design {
	return scatteredSquare(seed, nc, 64, withMacro)
}

// scatteredSquare is scatteredDesign in a side x side region.
func scatteredSquare(seed int64, nc int, side float64, withMacro bool) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{
		Name:      "lg",
		Region:    geom.RectWH(0, 0, side, side),
		RowHeight: 1,
		SiteWidth: 0.25,
		Layers:    netlist.DefaultLayers(),
	}
	if withMacro {
		d.AddCell(netlist.Cell{Name: "m", W: 16, H: 16, X: 24, Y: 24, Fixed: true, Macro: true})
	}
	for i := 0; i < nc; i++ {
		w := 0.5 + 0.25*float64(rng.Intn(4))
		d.AddCell(netlist.Cell{
			W: w, H: 1,
			X: rng.Float64() * (side - w),
			Y: rng.Float64() * (side - 1),
		})
	}
	return d
}

// checkLegal verifies row/site alignment, region containment, and absence
// of overlaps (including with fixed cells).
func checkLegal(t *testing.T, d *netlist.Design) {
	t.Helper()
	type placed struct {
		x0, x1, y float64
		id        int
	}
	var cells []placed
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		// Row alignment.
		ry := (c.Y - d.Region.Lo.Y) / d.RowHeight
		if math.Abs(ry-math.Round(ry)) > 1e-6 {
			t.Fatalf("cell %d not row aligned: y=%v", i, c.Y)
		}
		if c.X < d.Region.Lo.X-1e-6 || c.X+c.W > d.Region.Hi.X+1e-6 ||
			c.Y < d.Region.Lo.Y-1e-6 || c.Y+c.H > d.Region.Hi.Y+1e-6 {
			t.Fatalf("cell %d outside region: (%v,%v)", i, c.X, c.Y)
		}
		cells = append(cells, placed{c.X, c.X + c.W, c.Y, i})
		// No overlap with fixed cells.
		for j := range d.Cells {
			f := &d.Cells[j]
			if f.Fixed && c.Rect().OverlapArea(f.Rect()) > 1e-9 {
				t.Fatalf("cell %d overlaps fixed cell %d", i, j)
			}
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].y != cells[b].y {
			return cells[a].y < cells[b].y
		}
		return cells[a].x0 < cells[b].x0
	})
	for k := 1; k < len(cells); k++ {
		a, b := cells[k-1], cells[k]
		if a.y == b.y && b.x0 < a.x1-1e-6 {
			t.Fatalf("cells %d and %d overlap in row y=%v: [%v,%v) vs [%v,%v)",
				a.id, b.id, a.y, a.x0, a.x1, b.x0, b.x1)
		}
	}
}

func TestLegalizeBasic(t *testing.T) {
	d := scatteredDesign(1, 400, false)
	res, err := Legalize(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, d)
	if res.Cells != 400 {
		t.Errorf("legalized %d cells, want 400", res.Cells)
	}
	if res.AvgDisplacement > 3 {
		t.Errorf("average displacement %v too large", res.AvgDisplacement)
	}
	if res.MaxDisplacement < res.AvgDisplacement {
		t.Error("max displacement below average")
	}
}

func TestLegalizeAvoidsMacro(t *testing.T) {
	d := scatteredDesign(2, 400, true)
	if _, err := Legalize(d, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	checkLegal(t, d)
}

func TestLegalizeDense(t *testing.T) {
	// ~70% utilization: still must succeed without overlap.
	d := scatteredDesign(3, 2800, false)
	if _, err := Legalize(d, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	checkLegal(t, d)
}

func TestPaddingCreatesWhiteSpace(t *testing.T) {
	run := func(pad bool) float64 {
		d := scatteredDesign(4, 200, false)
		for i := range d.Cells {
			d.Cells[i].PadW = 1.0
		}
		cfg := DefaultConfig()
		if !pad {
			cfg.Theta = 0 // inherit nothing
		}
		cfg.MaxUtil = 1 // no cap, isolate the padding effect
		if _, err := Legalize(d, cfg); err != nil {
			t.Fatal(err)
		}
		checkLegal(t, d)
		// Mean nearest same-row gap.
		type pc struct{ x0, x1, y float64 }
		var cells []pc
		for i := range d.Cells {
			c := &d.Cells[i]
			cells = append(cells, pc{c.X, c.X + c.W, c.Y})
		}
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].y != cells[b].y {
				return cells[a].y < cells[b].y
			}
			return cells[a].x0 < cells[b].x0
		})
		gaps, n := 0.0, 0
		for k := 1; k < len(cells); k++ {
			if cells[k].y == cells[k-1].y {
				gaps += cells[k].x0 - cells[k-1].x1
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return gaps / float64(n)
	}
	gapPadded := run(true)
	gapPlain := run(false)
	if gapPadded <= gapPlain {
		t.Errorf("padding did not widen gaps: %v vs %v", gapPadded, gapPlain)
	}
}

func TestDiscretizePaddingStaircase(t *testing.T) {
	d := scatteredDesign(5, 4, false)
	movable := d.MovableIDs()
	d.Cells[movable[0]].PadW = 0
	d.Cells[movable[1]].PadW = 0.5
	d.Cells[movable[2]].PadW = 1.0
	d.Cells[movable[3]].PadW = 2.0 // mp
	cfg := Config{Theta: 4, MaxUtil: 1}
	got := discretizePadding(d, movable, cfg)
	// Eq. 17 with θ=4, mp=2: floor(4·(p/2 + 0.5)).
	want := []int{0, 3, 4, 6}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("DisPad[%d] = %d, want %d", k, got[k], want[k])
		}
	}
}

func TestDiscretizePaddingCap(t *testing.T) {
	d := scatteredDesign(6, 100, false)
	movable := d.MovableIDs()
	for _, ci := range movable {
		d.Cells[ci].PadW = 2.0
	}
	cfg := DefaultConfig() // 5% cap
	got := discretizePadding(d, movable, cfg)
	area := 0.0
	for k, ci := range movable {
		area += float64(got[k]) * d.SiteWidth * d.Cells[ci].H
	}
	if cap := cfg.MaxUtil * d.TotalMovableArea(); area > cap+1e-9 {
		t.Errorf("discrete padding area %v exceeds cap %v", area, cap)
	}
}

func TestDiscretizePaddingDisabled(t *testing.T) {
	d := scatteredDesign(7, 10, false)
	movable := d.MovableIDs()
	for _, ci := range movable {
		d.Cells[ci].PadW = 1
	}
	got := discretizePadding(d, movable, Config{Theta: 0, MaxUtil: 0.05})
	for k, v := range got {
		if v != 0 {
			t.Errorf("DisPad[%d] = %d with padding disabled", k, v)
		}
	}
}

func TestLegalizeErrorsOnMissingGeometry(t *testing.T) {
	d := scatteredDesign(8, 10, false)
	d.SiteWidth = 0
	if _, err := Legalize(d, DefaultConfig()); err == nil {
		t.Error("no error for missing site width")
	}
}

func TestLegalizeEmptyDesign(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10), RowHeight: 1, SiteWidth: 0.25}
	res, err := Legalize(d, DefaultConfig())
	if err != nil || res.Cells != 0 {
		t.Errorf("empty design: res=%+v err=%v", res, err)
	}
}

func TestAbacusRowMinimalDisplacement(t *testing.T) {
	// Two cells wanting the same spot: Abacus should split them around it.
	cells := []*legalCell{
		{w: 2, targetX: 10},
		{w: 2, targetX: 10},
	}
	xs, ok := abacusRow(cells, 0, 100)
	if !ok {
		t.Fatal("abacusRow failed")
	}
	if xs[1]-xs[0] != 2 {
		t.Errorf("cells not abutted: %v", xs)
	}
	center := (xs[0] + xs[1] + 2) / 2
	if math.Abs(center-11) > 1e-9 {
		t.Errorf("cluster center = %v, want 11", center)
	}
}

func TestAbacusRowRespectsBounds(t *testing.T) {
	cells := []*legalCell{{w: 4, targetX: -50}}
	xs, ok := abacusRow(cells, 0, 10)
	if !ok || xs[0] != 0 {
		t.Errorf("left clamp: %v ok=%v", xs, ok)
	}
	cells = []*legalCell{{w: 4, targetX: 50}}
	xs, ok = abacusRow(cells, 0, 10)
	if !ok || xs[0] != 6 {
		t.Errorf("right clamp: %v ok=%v", xs, ok)
	}
	cells = []*legalCell{{w: 6, targetX: 0}, {w: 6, targetX: 1}}
	if _, ok := abacusRow(cells, 0, 10); ok {
		t.Error("overfull row accepted")
	}
}

func BenchmarkLegalize2000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := scatteredDesign(int64(i), 2000, true)
		b.StartTimer()
		if _, err := Legalize(d, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// legalizeSquare16k is a 192x192 region holding ≈ 17k cells (the size of
// the repo benchmark's place_large_calm) with a macro and a fence.
func legalizeSquare16k(seed int64) *netlist.Design {
	d := scatteredSquare(seed, 17000, 192, true)
	d.Fences = append(d.Fences, netlist.Fence{Name: "f", Rect: geom.RectWH(120, 40, 40, 40)})
	for i := range d.Cells {
		if !d.Cells[i].Fixed && i%16 == 0 {
			d.Cells[i].Fence = 1
		}
	}
	return d
}

// BenchmarkLegalize16k is the size at which a per-cell cost that grows
// with N shows; the 2k bench hides it.
func BenchmarkLegalize16k(b *testing.B) {
	b.ReportAllocs()
	cells := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := legalizeSquare16k(int64(i))
		b.StartTimer()
		res, err := Legalize(d, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cells += res.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}

// --- Reference legalizer: the from-scratch Abacus row solve and the scan
// over every segment that the incremental engine replaced. Test-only; it
// defines what "bit-identical" means for TestLegalizeMatchesReference.

// abacusRow runs the Abacus cluster algorithm over cells (in order),
// returning their x positions within [x0, x1], or false if they do not fit.
func abacusRow(cells []*legalCell, x0, x1 float64) ([]float64, bool) {
	total := 0.0
	for _, c := range cells {
		total += c.w
	}
	if total > x1-x0+1e-9 {
		return nil, false
	}
	clusters := make([]cluster, 0, len(cells))
	for i, c := range cells {
		nc := cluster{first: i, last: i, e: 1, q: c.targetX, w: c.w}
		nc.x = clampCluster(nc, x0, x1)
		clusters = append(clusters, nc)
		// Collapse while overlapping the previous cluster.
		for len(clusters) >= 2 {
			b := &clusters[len(clusters)-1]
			a := &clusters[len(clusters)-2]
			if a.x+a.w <= b.x+1e-12 {
				break
			}
			a.q += b.q - b.e*a.w
			a.e += b.e
			a.w += b.w
			a.last = b.last
			clusters = clusters[:len(clusters)-1]
			a.x = clampCluster(*a, x0, x1)
		}
	}
	xs := make([]float64, len(cells))
	for _, cl := range clusters {
		x := cl.x
		for i := cl.first; i <= cl.last; i++ {
			xs[i] = x
			x += cells[i].w
		}
	}
	return xs, true
}

// refPlaceCell tries lc at the end of every segment, in index order, and
// commits it to the first strict cost minimum, re-solving that row.
func refPlaceCell(lc *legalCell, segs []*segment) error {
	bestCost := math.Inf(1)
	bestSeg := -1
	for si, s := range segs {
		if s.fence != lc.fence {
			continue
		}
		dy := s.rowY - lc.targetY
		if dy*dy >= bestCost {
			continue
		}
		if s.used+lc.w > s.x1-s.x0 {
			continue
		}
		xs, ok := abacusRow(append(append([]*legalCell(nil), s.cells...), lc), s.x0, s.x1)
		if !ok {
			continue
		}
		dx := xs[len(xs)-1] - lc.targetX
		cost := dx*dx + dy*dy
		if cost < bestCost {
			bestCost = cost
			bestSeg = si
		}
	}
	if bestSeg < 0 {
		return fmt.Errorf("legal: no segment fits cell %d (w=%.3f)", lc.id, lc.w)
	}
	s := segs[bestSeg]
	s.cells = append(s.cells, lc)
	s.used += lc.w
	xs, ok := abacusRow(s.cells, s.x0, s.x1)
	if !ok {
		return fmt.Errorf("legal: committed row does not fit")
	}
	for i, c := range s.cells {
		c.x = xs[i]
	}
	return nil
}

// refLegalize is Legalize with refPlaceCell as the search; everything
// around the search is the engine's own. Its segments carry no cluster
// stack, so finalizeSegment snaps the positions refPlaceCell stored.
func refLegalize(d *netlist.Design, cfg Config) (Result, error) {
	var res Result
	movable := d.MovableIDs()
	disPad := discretizePadding(d, movable, cfg)
	for _, s := range disPad {
		res.PaddingSites += s
	}
	ix := newRowIndex(buildSegments(d, d.SiteWidth, d.RowHeight))
	cells := sortedCells(d, movable, disPad)
	for k := range cells {
		if err := refPlaceCell(&cells[k], ix.segs); err != nil {
			return res, err
		}
	}
	err := writeBack(d, ix.segs, len(movable), &res)
	return res, err
}

// diffVariant describes one family of designs of the differential test.
type diffVariant struct {
	name   string
	w, h   float64 // region
	siteW  float64
	util   float64 // snapped cell width over free row width
	macro  bool
	fences bool    // two fences; fenced cells start anywhere in the region
	pad    bool    // PadW on half the cells, enough for the 5% cap to fire
	band   float64 // > 0: target y drawn from the middle band of this height
}

var diffVariants = []diffVariant{
	{name: "plain", w: 48, h: 24, siteW: 0.25, util: 0.45},
	{name: "macro", w: 48, h: 24, siteW: 0.25, util: 0.45, macro: true},
	{name: "fences", w: 48, h: 24, siteW: 0.25, util: 0.40, fences: true},
	{name: "macro+fences+pad", w: 48, h: 24, siteW: 0.25, util: 0.40, macro: true, fences: true, pad: true},
	{name: "pad-capped", w: 48, h: 24, siteW: 0.25, util: 0.55, pad: true},
	{name: "full-nearby", w: 32, h: 16, siteW: 0.25, util: 0.92, band: 4},
	{name: "single-row", w: 64, h: 1, siteW: 0.25, util: 0.60},
	{name: "site-0.19", w: 48, h: 24, siteW: 0.19, util: 0.60, macro: true, fences: true, pad: true},
}

// diffDesign generates variant v's design for seed.
func diffDesign(v diffVariant, seed int64) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{
		Name:      v.name,
		Region:    geom.RectWH(0, 0, v.w, v.h),
		RowHeight: 1,
		SiteWidth: v.siteW,
		Layers:    netlist.DefaultLayers(),
	}
	free := v.w * v.h
	if v.macro {
		d.AddCell(netlist.Cell{Name: "m", W: 8, H: 8, X: 16, Y: 8, Fixed: true, Macro: true})
		free -= 64
	}
	if v.fences {
		d.Fences = append(d.Fences,
			netlist.Fence{Name: "f1", Rect: geom.RectWH(30, 4, 12, 8)},
			netlist.Fence{Name: "f2", Rect: geom.RectWH(4, 14, 10, 6)})
	}
	for used, i := 0.0, 0; used < v.util*free; i++ {
		w := 0.5 + 0.25*float64(rng.Intn(4))
		c := netlist.Cell{W: w, H: 1, X: rng.Float64() * (v.w - w), Y: rng.Float64() * (v.h - 1)}
		switch {
		case v.band > 0 && i%2 == 0:
			c.Y = (v.h-v.band)/2 + rng.Float64()*(v.band-1)
		case i%3 == 1 && v.h > 1:
			// Exactly between two rows: where both are free at the target
			// x the two costs tie, and the lower row must win.
			c.Y = math.Floor(c.Y) + 0.5
		case i%10 == 9:
			// Same target as the previous cell: order falls to the id.
			c.X, c.Y = d.Cells[len(d.Cells)-1].X, d.Cells[len(d.Cells)-1].Y
		}
		if v.fences && i%8 == 0 {
			c.Fence = 1
		} else if v.fences && i%16 == 4 {
			c.Fence = 2
		}
		if v.pad && rng.Intn(2) == 0 {
			c.PadW = 2 * rng.Float64()
		}
		d.AddCell(c)
		used += snapUp(w, v.siteW)
	}
	if v.fences {
		// Fenced cells whose nearest rows hold no segment of their fence.
		d.AddCell(netlist.Cell{W: 1, H: 1, X: 1, Y: v.h - 1, Fence: 1})
		d.AddCell(netlist.Cell{W: 1, H: 1, X: v.w - 2, Y: 0, Fence: 2})
	}
	return d
}

// TestLegalizeMatchesReference is the bit-identity oracle: on every
// variant and seed the engine's placement and Result equal the reference
// legalizer's exactly.
func TestLegalizeMatchesReference(t *testing.T) {
	const seeds = 6
	cfg := DefaultConfig()
	for _, v := range diffVariants {
		for seed := int64(1); seed <= seeds; seed++ {
			start := diffDesign(v, seed)
			want, got := start.Clone(), start.Clone()
			wantRes, err := refLegalize(want, cfg)
			if err != nil {
				t.Fatalf("%s/%d: reference: %v", v.name, seed, err)
			}
			gotRes, err := Legalize(got, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", v.name, seed, err)
			}
			if gotRes != wantRes {
				t.Errorf("%s/%d: result %+v, reference %+v", v.name, seed, gotRes, wantRes)
			}
			widened := false
			for i := range got.Cells {
				g, w := &got.Cells[i], &want.Cells[i]
				if g.X != w.X || g.Y != w.Y {
					t.Fatalf("%s/%d: cell %d at (%v,%v), reference (%v,%v)", v.name, seed, i, g.X, g.Y, w.X, w.Y)
				}
				widened = widened || math.Abs(g.Y-start.Cells[i].Y) >= 3
			}
			if vs := Check(got, 1); len(vs) != 0 {
				t.Errorf("%s/%d: %s", v.name, seed, vs[0])
			}
			if v.band > 0 && !widened {
				t.Errorf("%s/%d: no cell left its target rows; the variant does not widen the search", v.name, seed)
			}
			if v.pad {
				uncapped := 0
				for _, s := range discretizePadding(start, start.MovableIDs(), Config{Theta: cfg.Theta, MaxUtil: 1}) {
					uncapped += s
				}
				if gotRes.PaddingSites == 0 || gotRes.PaddingSites >= uncapped {
					t.Errorf("%s/%d: padding sites %d of %d uncapped; the 5%% cap did not fire", v.name, seed, gotRes.PaddingSites, uncapped)
				}
			}
		}
	}
}

// TestLegalizeTieGoesToLowestSegment: a cell centred on a macro costs the
// same in the segments left and right of it, a cell halfway between two
// free rows the same in both; each goes where the scan in index order
// would put it — left, and down.
func TestLegalizeTieGoesToLowestSegment(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 16, 4), RowHeight: 1, SiteWidth: 0.25}
	d.AddCell(netlist.Cell{Name: "m", W: 4, H: 4, X: 6, Y: 0, Fixed: true, Macro: true})
	onMacro := d.AddCell(netlist.Cell{W: 1, H: 1, X: 7.5, Y: 1})
	between := d.AddCell(netlist.Cell{W: 1, H: 1, X: 3, Y: 2.5})
	ref := d.Clone()
	if _, err := Legalize(d, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := refLegalize(ref, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cell int
		x, y float64
	}{{onMacro, 5, 1}, {between, 3, 2}} {
		c, r := d.Cells[tc.cell], ref.Cells[tc.cell]
		if c.X != tc.x || c.Y != tc.y || r.X != tc.x || r.Y != tc.y {
			t.Errorf("cell %d at (%v,%v), reference (%v,%v), want (%v,%v)", tc.cell, c.X, c.Y, r.X, r.Y, tc.x, tc.y)
		}
	}
}

// TestStackMatchesAbacusRow checks the invariant the engine rests on: after
// any committed prefix the segment's cluster stack is the state abacusRow
// ends in, so a trial returns abacusRow's x for the appended cell and
// settle returns abacusRow's positions — to the last bit, on a site width
// whose multiples are not exactly representable.
func TestStackMatchesAbacusRow(t *testing.T) {
	const siteW = 0.19
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &segment{x0: 2 * siteW, x1: 160 * siteW}
		cells := make([]legalCell, 60+rng.Intn(60)) // up to ~95% full
		for i := range cells {
			cells[i] = legalCell{id: i, w: float64(1+rng.Intn(3)) * siteW, targetX: rng.Float64()*34 - 2}
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].targetX < cells[j].targetX })
		for i := range cells {
			lc := &cells[i]
			if s.used+lc.w > s.x1-s.x0 {
				break
			}
			x, top, cl := s.trial(lc)
			want, ok := abacusRow(append(append([]*legalCell(nil), s.cells...), lc), s.x0, s.x1)
			if !ok {
				t.Fatalf("seed %d: reference row overfull at cell %d", seed, i)
			}
			if x != want[i] {
				t.Fatalf("seed %d: trial of cell %d gives x=%v, abacusRow %v", seed, i, x, want[i])
			}
			s.push(lc, top, cl)
			s.settle()
			for k, c := range s.cells {
				if c.x != want[k] {
					t.Fatalf("seed %d: after %d cells, cell %d settles at %v, abacusRow %v", seed, i+1, k, c.x, want[k])
				}
			}
		}
		if len(s.stack) == len(s.cells) {
			t.Errorf("seed %d: no cluster ever merged", seed)
		}
	}
}

// TestLegalizeSearchIsLocal pins the search's work, which repeats exactly
// for a given design: segment trials per cell stay small and do not grow
// with the design at constant utilization.
func TestLegalizeSearchIsLocal(t *testing.T) {
	perCell := func(nc int, side float64) float64 {
		d := scatteredSquare(9, nc, side, true)
		res, ix, err := legalize(context.Background(), d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		trials := float64(ix.trials) / float64(res.Cells)
		t.Logf("%d cells: %.2f trials/cell, %.2f rows/cell, %d segments",
			res.Cells, trials, float64(ix.rowVisits)/float64(res.Cells), len(ix.segs))
		if trials > 16 {
			t.Errorf("%d cells: %.2f segment trials per cell, want <= 16", nc, trials)
		}
		if ix.rowVisits > ix.trials+2*res.Cells {
			t.Errorf("%d cells: %d row visits for %d trials", nc, ix.rowVisits, ix.trials)
		}
		return trials
	}
	small, large := perCell(2000, 64), perCell(8000, 128)
	if large > 1.1*small {
		t.Errorf("trials per cell grew with N: %.2f at 2k cells, %.2f at 8k", small, large)
	}
}

// TestLegalizeAllocsScaleWithSegments: the search itself allocates
// nothing — the cells live in one slab — so allocations are bounded by
// the per-segment slices, however many cells and trials there are.
func TestLegalizeAllocsScaleWithSegments(t *testing.T) {
	for _, nc := range []int{1000, 3000} {
		src := scatteredDesign(10, nc, true)
		_, ix, err := legalize(context.Background(), src.Clone(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := src.Clone()
		allocs := testing.AllocsPerRun(3, func() {
			copy(d.Cells, src.Cells)
			if _, err := Legalize(d, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := float64(20*len(ix.segs) + 64)
		t.Logf("%d cells, %d segments, %d trials: %.0f allocs", nc, len(ix.segs), ix.trials, allocs)
		if allocs > ceiling {
			t.Errorf("%d cells: %.0f allocs per Legalize, want <= %.0f (20 per segment + 64)", nc, allocs, ceiling)
		}
	}
}
