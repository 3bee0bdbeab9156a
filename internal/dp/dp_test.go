package dp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// legalDesign produces a legalized synthetic design ready for refinement.
func legalDesign(t *testing.T, scale int) *netlist.Design {
	t.Helper()
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	return scatterAndLegalize(t, synth.Generate(p, scale, 3), false)
}

// scatterAndLegalize scatters the movable cells deterministically (a
// stand-in for global placement) and legalizes; with padded set, every
// eighth cell carries padding into legalization.
func scatterAndLegalize(t *testing.T, d *netlist.Design, padded bool) *netlist.Design {
	t.Helper()
	n := 0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		c.X = d.Region.Lo.X + math.Mod(float64(n)*1.618*7, d.Region.W()-c.W)
		c.Y = d.Region.Lo.Y + math.Mod(float64(n)*2.414*3, d.Region.H()-c.H)
		if padded && n%8 == 0 {
			c.PadW = 0.5
		}
		n++
	}
	if _, err := legal.Legalize(d, legal.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkStillLegal verifies rows, sites, region, and overlaps.
func checkStillLegal(t *testing.T, d *netlist.Design) {
	t.Helper()
	type pc struct{ x0, x1, y float64 }
	var cells []pc
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		ry := (c.Y - d.Region.Lo.Y) / d.RowHeight
		if math.Abs(ry-math.Round(ry)) > 1e-6 {
			t.Fatalf("cell %d off row grid", i)
		}
		sx := (c.X - d.Region.Lo.X) / d.SiteWidth
		if math.Abs(sx-math.Round(sx)) > 1e-6 {
			t.Fatalf("cell %d off site grid: x=%v", i, c.X)
		}
		if c.X < d.Region.Lo.X-1e-9 || c.X+c.W > d.Region.Hi.X+1e-9 {
			t.Fatalf("cell %d out of region", i)
		}
		for j := range d.Cells {
			f := &d.Cells[j]
			if f.Fixed && c.Rect().OverlapArea(f.Rect()) > 1e-9 {
				t.Fatalf("cell %d overlaps fixed %d", i, j)
			}
		}
		cells = append(cells, pc{c.X, c.X + c.W, c.Y})
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].y != cells[b].y {
			return cells[a].y < cells[b].y
		}
		return cells[a].x0 < cells[b].x0
	})
	for k := 1; k < len(cells); k++ {
		if cells[k].y == cells[k-1].y && cells[k].x0 < cells[k-1].x1-1e-6 {
			t.Fatalf("overlap in row %v: [%v,%v) vs [%v,%v)",
				cells[k].y, cells[k-1].x0, cells[k-1].x1, cells[k].x0, cells[k].x1)
		}
	}
}

func TestRefineImprovesHPWL(t *testing.T) {
	d := legalDesign(t, 1500)
	res, err := Refine(d, Config{Passes: 2, WindowSites: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("HPWL worsened: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
	if res.Moves+res.Swaps == 0 {
		t.Error("no refinement actions on a scattered design")
	}
	if got := d.HPWL(); math.Abs(got-res.HPWLAfter) > 1e-6 {
		t.Errorf("reported HPWLAfter %v != actual %v", res.HPWLAfter, got)
	}
	checkStillLegal(t, d)
	// A scattered placement should improve substantially.
	if res.HPWLAfter > 0.95*res.HPWLBefore {
		t.Errorf("improvement only %.2f%%", 100*(1-res.HPWLAfter/res.HPWLBefore))
	}
}

func TestRefineIsIdempotentAtFixpoint(t *testing.T) {
	d := legalDesign(t, 1500)
	if _, err := Refine(d, Config{Passes: 6, WindowSites: 60}); err != nil {
		t.Fatal(err)
	}
	res, err := Refine(d, Config{Passes: 1, WindowSites: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLAfter > res.HPWLBefore+1e-9 {
		t.Error("second refinement worsened HPWL")
	}
}

func TestPreservePaddingKeepsClearance(t *testing.T) {
	d := legalDesign(t, 1500)
	// Give every 4th cell padding and re-legalize to create white space.
	// Lift the utilization cap so the white space is really there and the
	// test isolates what refinement does to it.
	for i := range d.Cells {
		if !d.Cells[i].Fixed && i%8 == 0 {
			d.Cells[i].PadW = 0.5
		}
	}
	lcfg := legal.DefaultConfig()
	lcfg.MaxUtil = 1
	if _, err := legal.Legalize(d, lcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(d, Config{Passes: 2, WindowSites: 60, PreservePadding: true}); err != nil {
		t.Fatal(err)
	}
	checkStillLegal(t, d)
	// Padded cells keep at least PadW/2-ish clearance on each side
	// (bounded by what legalization could give them).
	type pc struct {
		x0, x1, y float64
		id        int
	}
	var cells []pc
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		cells = append(cells, pc{c.X, c.X + c.W, c.Y, i})
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].y != cells[b].y {
			return cells[a].y < cells[b].y
		}
		return cells[a].x0 < cells[b].x0
	})
	violations := 0
	for k := 1; k < len(cells); k++ {
		if cells[k].y != cells[k-1].y {
			continue
		}
		gap := cells[k].x0 - cells[k-1].x1
		needed := d.Cells[cells[k].id].PadW/2 + d.Cells[cells[k-1].id].PadW/2
		if needed > 0 && gap < needed*0.4 { // legalization may have relegated some
			violations++
		}
	}
	if violations > len(cells)/5 {
		t.Errorf("%d/%d padded gaps collapsed by refinement", violations, len(cells))
	}
}

// TestPreservePaddingHoldsAnalogClearance pins what DP preserves: the
// analog GP padding, PadW/2 per side, not Eq. 17's legalized sites. Cell a
// carries PadW 4 but the legalizer's 5 % cap relegates it to zero sites;
// its neighbour b, pulled toward a by their net, still stops PadW/2 = 2
// short of a with PreservePadding on, and abuts a with it off.
func TestPreservePaddingHoldsAnalogClearance(t *testing.T) {
	for _, preserve := range []bool{true, false} {
		d := &netlist.Design{
			Name:      "clearance",
			Region:    geom.RectWH(0, 0, 40, 1),
			RowHeight: 1,
			SiteWidth: 1,
			Layers:    netlist.DefaultLayers(),
		}
		a := d.AddCell(netlist.Cell{Name: "a", W: 4, H: 1, X: 20, PadW: 4})
		b := d.AddCell(netlist.Cell{Name: "b", W: 4, H: 1, X: 2})
		n := d.AddNet("ab", 1)
		d.Connect(a, n, 0, 0.5) // a's left edge
		d.Connect(b, n, 4, 0.5) // b's right edge
		lres, err := legal.Legalize(d, legal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if lres.PaddingSites != 0 || d.Cells[a].X != 20 || d.Cells[b].X != 2 {
			t.Fatalf("legalization: %d padding sites, a at %v, b at %v; want 0 sites and no move",
				lres.PaddingSites, d.Cells[a].X, d.Cells[b].X)
		}
		if _, err := Refine(d, Config{Passes: 2, WindowSites: 100, PreservePadding: preserve}); err != nil {
			t.Fatal(err)
		}
		gap := d.Cells[a].X - (d.Cells[b].X + d.Cells[b].W)
		want := 0.0
		if preserve {
			want = d.Cells[a].PadW / 2
		}
		if d.Cells[a].X != 20 || gap != want {
			t.Errorf("preserve=%t: a at %v, gap b→a %v, want a at 20 and gap %v", preserve, d.Cells[a].X, gap, want)
		}
	}
}

// findGapReference is the gap search findGap replaced, kept verbatim as
// the oracle (the abacusRow pattern): it gathers the row's cells and
// obstacles into a fresh slice and sorts it, on every call.
func findGapReference(d *netlist.Design, cells []rowCell, obs []rowCell, rc rowCell, m, targetX float64, fb geom.Rect, siteW, window float64, preserve bool) (float64, bool) {
	// Blockers: committed cells plus fixed obstacles, sorted by x.
	blockers := make([]rowCell, 0, len(cells)+len(obs))
	blockers = append(blockers, cells...)
	blockers = append(blockers, obs...)
	sort.Slice(blockers, func(a, b int) bool { return blockers[a].x < blockers[b].x })

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
	for _, b := range blockers {
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

// TestFindGapMatchesReference drives the merge sweep and the copy-and-sort
// oracle over seeded rows: cells with and without padding, obstacles that
// abut cells, abut each other, overlap each other and share an x, fences
// narrower than the row, and targets on and off the site grid.
func TestFindGapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const siteW = 0.25
	hits := 0
	for trial := 0; trial < 3000; trial++ {
		d := &netlist.Design{Region: geom.RectWH(10, 0, 60, 10), RowHeight: 1, SiteWidth: siteW}
		var cells, obs []rowCell
		x := d.Region.Lo.X
		for x < d.Region.Hi.X-4 {
			if rng.Intn(3) > 0 { // abutting blockers one time in three
				x += siteW * float64(rng.Intn(12))
			}
			w := siteW * float64(1+rng.Intn(8))
			switch rng.Intn(4) {
			case 0: // a fixed obstacle, sometimes with a second one over it
				obs = append(obs, rowCell{id: -1, x: x, w: w})
				if rng.Intn(3) == 0 {
					obs = append(obs, rowCell{id: -1, x: x + siteW*float64(rng.Intn(3)), w: w})
				}
			default:
				c := netlist.Cell{W: w, H: 1, X: x}
				if rng.Intn(3) == 0 {
					c.PadW = siteW * float64(1+rng.Intn(4))
				}
				cells = append(cells, rowCell{id: d.AddCell(c), x: x, w: w, pad: c.PadW})
			}
			x += w
		}
		// Refine hands findGap the obstacles stably sorted by x.
		sort.SliceStable(obs, func(a, b int) bool { return obs[a].x < obs[b].x })

		mover := rowCell{id: d.AddCell(netlist.Cell{W: siteW * float64(1+rng.Intn(6)), H: 1}), x: 12}
		mover.w = d.Cells[mover.id].W
		fb := d.Region
		if rng.Intn(2) == 0 {
			fb = geom.RectWH(d.Region.Lo.X+siteW*float64(rng.Intn(60)), 0, 20+siteW*float64(rng.Intn(80)), 10)
		}
		m := siteW * float64(rng.Intn(3)) / 2
		target := d.Region.Lo.X + rng.Float64()*d.Region.W()
		window := siteW * float64(10+rng.Intn(200))
		preserve := rng.Intn(2) == 0

		wantCells, wantObs := append([]rowCell(nil), cells...), append([]rowCell(nil), obs...)
		wx, wok := findGapReference(d, cells, obs, mover, m, target, fb, siteW, window, preserve)
		// With the running edges the sweep starts at the window; without
		// them it walks the row from its first blocker.
		for _, row := range []gapRow{
			{cells: cells, obs: obs, cellEnds: runningEnds(nil, cells, preserve), obsEnds: runningEnds(nil, obs, false), skip: true},
			{cells: cells, obs: obs},
		} {
			gx, gok := findGap(d, row, mover, m, target, fb, siteW, window, preserve)
			if math.Float64bits(gx) != math.Float64bits(wx) || gok != wok {
				t.Fatalf("trial %d skip=%v: findGap = (%v, %v), reference (%v, %v)\ncells %v\nobs %v", trial, row.skip, gx, gok, wx, wok, cells, obs)
			}
		}
		if !reflect.DeepEqual(cells, wantCells) || !reflect.DeepEqual(obs, wantObs) {
			t.Fatalf("trial %d: findGap modified its inputs", trial)
		}
		if wok {
			hits++
		}
	}
	if hits < 500 {
		t.Errorf("only %d of 3000 searches found a gap; the comparison proves too little", hits)
	}
	d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10), RowHeight: 1, SiteWidth: siteW}
	row := []rowCell{{id: d.AddCell(netlist.Cell{W: 1, H: 1, X: 2}), x: 2, w: 1}}
	mover := rowCell{id: d.AddCell(netlist.Cell{W: 1, H: 1}), w: 1}
	if got := testing.AllocsPerRun(10, func() { findGap(d, gapRow{cells: row}, mover, 0, 5, d.Region, siteW, 10, true) }); got != 0 {
		t.Errorf("findGap allocates %v objects per call, want 0", got)
	}
}

// loaded returns a refiner loaded with d, for the tests of its pieces.
func loaded(t *testing.T, d *netlist.Design) *refiner {
	t.Helper()
	r := new(refiner)
	if err := r.load(d); err != nil {
		t.Fatal(err)
	}
	return r
}

// refineBoth runs Refine on d and the reference refinement on a clone, and
// fails unless the Results are equal and every cell sits at the same bits.
func refineBoth(t *testing.T, name string, d *netlist.Design, cfg Config) Result {
	t.Helper()
	ref := d.Clone()
	got, err := Refine(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refineReference(context.Background(), ref, cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got != want {
		t.Fatalf("%s: Refine = %+v, reference %+v", name, got, want)
	}
	for i := range d.Cells {
		c, w := &d.Cells[i], &ref.Cells[i]
		if math.Float64bits(c.X) != math.Float64bits(w.X) || math.Float64bits(c.Y) != math.Float64bits(w.Y) {
			t.Fatalf("%s: cell %d at (%v, %v), reference (%v, %v)", name, i, c.X, c.Y, w.X, w.Y)
		}
	}
	return got
}

// addFence adds a row-aligned fence in the upper-right quadrant and assigns
// every eighth movable cell to it.
func addFence(d *netlist.Design) {
	fr := geom.RectWH(
		d.Region.Lo.X+d.Region.W()*0.5,
		d.Region.Lo.Y+float64(int(d.Region.H()*0.5)),
		d.Region.W()*0.45,
		float64(int(d.Region.H()*0.4)),
	)
	d.Fences = append(d.Fences, netlist.Fence{Name: "f", Rect: fr})
	for i := range d.Cells {
		if !d.Cells[i].Fixed && i%8 == 0 {
			d.Cells[i].Fence = 1
		}
	}
}

// TestRefineMatchesReference: refinement on cached pin coordinates, net
// extremes and indexed rows does exactly what the rescanning refinement it
// replaced did — the same Result, every cell at the same bits — on the
// three golden designs with and without padding to preserve, on the
// eco_chain and place_congested designs after legalization, on a fenced
// design, and on seeded small designs built to hit the corner cases.
func TestRefineMatchesReference(t *testing.T) {
	synthetic := func(profile string, scale int, seed int64) *netlist.Design {
		p, err := synth.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		return synth.Generate(p, scale, seed)
	}
	for _, gc := range []struct {
		profile string
		scale   int
		seed    int64
	}{{"OR1200", 400, 5}, {"MEDIA_SUBSYS", 1500, 1}, {"CT_TOP", 1500, 3}} {
		for _, preserve := range []bool{false, true} {
			d := scatterAndLegalize(t, synthetic(gc.profile, gc.scale, gc.seed), preserve)
			res := refineBoth(t, fmt.Sprintf("%s preserve=%v", gc.profile, preserve), d,
				Config{Passes: 2, WindowSites: 40, PreservePadding: preserve})
			if res.Moves == 0 {
				t.Errorf("%s preserve=%v: no moves; the comparison proves too little", gc.profile, preserve)
			}
		}
	}
	for _, bc := range []struct {
		profile string
		scale   int
	}{{"OR1200", 40}, {"MEDIA_SUBSYS", 200}} {
		d := scatterAndLegalize(t, synthetic(bc.profile, bc.scale, 1), true)
		// The flow's settings (pipeline.DefaultConfig's DP).
		refineBoth(t, fmt.Sprintf("%s/%d", bc.profile, bc.scale), d, Config{Passes: 2, WindowSites: 100, PreservePadding: true})
	}
	fenced := synthetic("OR1200", 400, 2)
	addFence(fenced)
	refineBoth(t, "fenced", scatterAndLegalize(t, fenced, true), Config{Passes: 3, WindowSites: 40})

	rng := rand.New(rand.NewSource(34))
	designs, moved := 0, 0
	for trial := 0; designs < 240; trial++ {
		if trial > 2000 {
			t.Fatalf("only %d of %d seeded designs legalized", designs, trial)
		}
		d := randomDesign(rng)
		if _, err := legal.Legalize(d, legal.DefaultConfig()); err != nil {
			continue
		}
		designs++
		// Cells the legalizer left at the region origin sometimes get its
		// negative zero, so pins land on -0 as well as +0.
		for i := range d.Cells {
			if c := &d.Cells[i]; !c.Fixed && c.X == 0 && rng.Intn(2) == 0 {
				c.X = math.Copysign(0, -1)
			}
		}
		cfg := Config{Passes: 1 + rng.Intn(3), WindowSites: 2 + rng.Intn(60), PreservePadding: rng.Intn(2) == 0}
		if res := refineBoth(t, fmt.Sprintf("trial %d %+v", trial, cfg), d, cfg); res.Moves+res.Swaps > 0 {
			moved++
		}
	}
	if moved < designs/2 {
		t.Errorf("only %d of %d seeded designs saw a move or swap; the comparison proves too little", moved, designs)
	}
}

// randomDesign is a small scattered design for the reference comparison:
// fixed macros and zero-width obstacles, padded cells, cells with several
// pins on one net, net weights 0 and not, a 60-pin net, and pins at the
// region origin with both signs of zero.
func randomDesign(rng *rand.Rand) *netlist.Design {
	site := []float64{0.25, 0.5}[rng.Intn(2)]
	w, h := float64(12+rng.Intn(24)), float64(6+rng.Intn(10))
	d := &netlist.Design{Region: geom.RectWH(0, 0, w, h), RowHeight: 1, SiteWidth: site}
	for k := rng.Intn(4); k > 0; k-- {
		mw, mh := 0.5+rng.Float64()*w/4, 0.5+rng.Float64()*h/3
		d.AddCell(netlist.Cell{W: mw, H: mh, X: rng.Float64() * (w - mw), Y: rng.Float64() * (h - mh), Fixed: true})
	}
	for k := rng.Intn(3); k > 0; k-- { // zero-width obstacles
		d.AddCell(netlist.Cell{W: 0, H: 1, X: site * float64(rng.Intn(int(w/site))), Y: float64(rng.Intn(int(h))), Fixed: true})
	}
	nc := 10 + rng.Intn(int(w*h/6))
	var movable []int
	for k := 0; k < nc; k++ {
		c := netlist.Cell{W: site * float64(1+rng.Intn(6)), H: 1, X: rng.Float64() * w * 0.9, Y: rng.Float64() * (h - 1)}
		if rng.Intn(8) == 0 {
			c.X, c.Y = 0, 0
		}
		if rng.Intn(4) == 0 {
			c.PadW = site * float64(1+rng.Intn(3))
		}
		movable = append(movable, d.AddCell(c))
	}
	offset := func(ci int) (float64, float64) {
		c := &d.Cells[ci]
		switch rng.Intn(4) {
		case 0:
			return 0, 0
		case 1:
			return math.Copysign(0, -1), math.Copysign(0, -1)
		}
		return rng.Float64() * c.W, rng.Float64() * c.H
	}
	connect := func(n, ci int) {
		dx, dy := offset(ci)
		d.Connect(ci, n, dx, dy)
	}
	for k := nc + rng.Intn(nc); k > 0; k-- {
		n := d.AddNet("", []float64{0, 0, 1, 2.5}[rng.Intn(4)])
		for p := 2 + rng.Intn(4); p > 0; p-- {
			ci := movable[rng.Intn(len(movable))]
			connect(n, ci)
			if rng.Intn(6) == 0 {
				connect(n, ci) // a second pin of the same cell
			}
		}
	}
	if rng.Intn(2) == 0 {
		n := d.AddNet("wide", 1)
		for p := 0; p < 60; p++ {
			connect(n, rng.Intn(len(d.Cells)))
		}
	}
	return d
}

func TestRefineRejectsBadGeometry(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10)}
	if _, err := Refine(d, Config{Passes: 1, WindowSites: 40}); err == nil {
		t.Error("no error for missing geometry")
	}
}

func TestZeroPassesNoop(t *testing.T) {
	d := legalDesign(t, 3000)
	before := d.HPWL()
	res, err := Refine(d, Config{Passes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.HPWL() != before || res.Moves != 0 {
		t.Error("zero passes changed the design")
	}
}

// TestRefineConcurrentDeterministic: refinements running at once each take
// their own pooled scratch — every design ends exactly where a lone
// refinement puts it.
func TestRefineConcurrentDeterministic(t *testing.T) {
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	var designs, want []*netlist.Design
	for seed := int64(1); seed <= 6; seed++ {
		d := scatterAndLegalize(t, synth.Generate(p, 400+100*int(seed), seed), seed%2 == 0)
		w := d.Clone()
		if _, err := Refine(w, Config{Passes: 2, WindowSites: 40, PreservePadding: seed%2 == 0}); err != nil {
			t.Fatal(err)
		}
		designs, want = append(designs, d), append(want, w)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(designs))
	for i := range designs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Refine(designs[i], Config{Passes: 2, WindowSites: 40, PreservePadding: i%2 == 1})
		}(i)
	}
	wg.Wait()
	for i, d := range designs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for c := range d.Cells {
			if math.Float64bits(d.Cells[c].X) != math.Float64bits(want[i].Cells[c].X) || math.Float64bits(d.Cells[c].Y) != math.Float64bits(want[i].Cells[c].Y) {
				t.Fatalf("design %d cell %d at (%v, %v), alone (%v, %v)", i, c, d.Cells[c].X, d.Cells[c].Y, want[i].Cells[c].X, want[i].Cells[c].Y)
			}
		}
	}
}
