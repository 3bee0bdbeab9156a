package dp

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// TestOptimalXMedian verifies the median-interval computation on a
// hand-built case: cell connected to three nets whose other pins sit at
// known positions.
func TestOptimalXMedian(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 100, 10), RowHeight: 1, SiteWidth: 0.5}
	c := d.AddCell(netlist.Cell{W: 2, H: 1, X: 50, Y: 0})
	// Three 2-pin nets with far pins at x = 10, 20, 80.
	for _, x := range []float64{10, 20, 80} {
		o := d.AddCell(netlist.Cell{W: 0, H: 0, X: x, Y: 5})
		n := d.AddNet("", 1)
		d.Connect(c, n, 1, 0.5) // pin at cell center x+1
		d.Connect(o, n, 0, 0)
	}
	// Bounds collected: {10,10},{20,20},{80,80} → sorted 10,10,20,20,80,80;
	// median pair = (20+20)/2 = 20; cell lower-left target = 20 - w/2 = 19.
	got := loaded(t, d).optimal(c, false)
	if math.Abs(got-19) > 1e-9 {
		t.Errorf("optimalX = %v, want 19", got)
	}
}

// TestOptimalXNoNets returns the current position for unconnected cells.
func TestOptimalXNoNets(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10), RowHeight: 1, SiteWidth: 0.5}
	c := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 0})
	if got := loaded(t, d).optimal(c, false); got != 4 {
		t.Errorf("optimalX = %v, want unchanged 4", got)
	}
}

// TestHPWLDeltaMoveMatchesFull verifies the incremental delta against a
// full HPWL recomputation.
func TestHPWLDeltaMoveMatchesFull(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 100, 10), RowHeight: 1, SiteWidth: 0.5}
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 10, Y: 0})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 30, Y: 2})
	cc := d.AddCell(netlist.Cell{W: 1, H: 1, X: 70, Y: 4})
	n1 := d.AddNet("", 2)
	d.Connect(a, n1, 0.5, 0.5)
	d.Connect(b, n1, 0.5, 0.5)
	n2 := d.AddNet("", 1)
	d.Connect(a, n2, 0, 0)
	d.Connect(cc, n2, 0, 0)

	before := d.HPWL()
	delta := loaded(t, d).deltaMove(a, 42, 3)
	d.Cells[a].X, d.Cells[a].Y = 42, 3
	after := d.HPWL()
	if math.Abs((after-before)-delta) > 1e-9 {
		t.Errorf("delta = %v, full recompute = %v", delta, after-before)
	}
}

// TestHPWLDeltaSwapMatchesFull does the same for swaps.
func TestHPWLDeltaSwapMatchesFull(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 100, 10), RowHeight: 1, SiteWidth: 0.5}
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 10, Y: 0})
	b := d.AddCell(netlist.Cell{W: 2, H: 1, X: 12, Y: 0})
	far := d.AddCell(netlist.Cell{W: 1, H: 1, X: 90, Y: 4})
	n1 := d.AddNet("", 1)
	d.Connect(a, n1, 0.5, 0.5)
	d.Connect(far, n1, 0.5, 0.5)
	n2 := d.AddNet("", 1)
	d.Connect(b, n2, 1, 0.5)
	d.Connect(far, n2, 0.5, 0.5)

	before := d.HPWL()
	delta := loaded(t, d).deltaSwap(a, 12, b, 10)
	d.Cells[a].X = 12
	d.Cells[b].X = 10
	after := d.HPWL()
	if math.Abs((after-before)-delta) > 1e-9 {
		t.Errorf("swap delta = %v, full recompute = %v", delta, after-before)
	}
}

// TestCrossRowMove verifies phase 1b: a cell whose nets live two rows
// away is relocated there when a gap exists.
func TestCrossRowMove(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 40, 10), RowHeight: 1, SiteWidth: 0.25}
	// Lone cell in row 0, all its neighbours in row 5.
	c := d.AddCell(netlist.Cell{W: 1, H: 1, X: 10, Y: 0})
	var anchors []int
	for k := 0; k < 3; k++ {
		anchors = append(anchors, d.AddCell(netlist.Cell{W: 1, H: 1, X: 8 + 2*float64(k), Y: 5}))
	}
	for _, a := range anchors {
		n := d.AddNet("", 1)
		d.Connect(c, n, 0.5, 0.5)
		d.Connect(a, n, 0.5, 0.5)
	}
	res, err := Refine(d, Config{Passes: 3, WindowSites: 80})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cells[c].Y != 5 {
		t.Errorf("cell not moved to row 5: y=%v", d.Cells[c].Y)
	}
	if res.HPWLAfter >= res.HPWLBefore {
		t.Errorf("no HPWL gain from the vertical move: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
	checkStillLegal(t, d)
}

// TestCrossRowMoveRespectsFences: a fenced cell may not jump to a row
// outside its fence even if its nets pull it there.
func TestCrossRowMoveRespectsFences(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 40, 10), RowHeight: 1, SiteWidth: 0.25}
	d.Fences = append(d.Fences, netlist.Fence{Name: "f", Rect: geom.RectWH(0, 0, 40, 2)})
	c := d.AddCell(netlist.Cell{W: 1, H: 1, X: 10, Y: 0, Fence: 1})
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 10, Y: 8})
	n := d.AddNet("", 1)
	d.Connect(c, n, 0.5, 0.5)
	d.Connect(a, n, 0.5, 0.5)
	if _, err := Refine(d, Config{Passes: 2, WindowSites: 80}); err != nil {
		t.Fatal(err)
	}
	if y := d.Cells[c].Y; y > 1 {
		t.Errorf("fenced cell escaped to y=%v", y)
	}
}

// TestClampSnap covers the snapping corner cases.
func TestClampSnap(t *testing.T) {
	// span [1.0, 3.0], origin 0, site 0.25
	if v, ok := clampSnap(2.13, 1, 3, 9, 0, 0.25); !ok || v != 2.25 {
		t.Errorf("snap = %v ok=%v, want 2.25", v, ok)
	}
	if v, ok := clampSnap(-5, 1, 3, 9, 0, 0.25); !ok || v != 1 {
		t.Errorf("clamp lo = %v ok=%v, want 1", v, ok)
	}
	if v, ok := clampSnap(99, 1, 3, 9, 0, 0.25); !ok || v != 3 {
		t.Errorf("clamp hi = %v ok=%v, want 3", v, ok)
	}
	// Inverted span: fail, keep old.
	if v, ok := clampSnap(2, 3, 1, 9, 0, 0.25); ok || v != 9 {
		t.Errorf("inverted span = %v ok=%v, want old 9", v, ok)
	}
	// Span narrower than a site with no site point inside.
	if _, ok := clampSnap(1.6, 1.55, 1.7, 9, 0, 0.25); ok {
		t.Error("snap succeeded in a site-free span")
	}
}

// TestExtremesMatchFolds: a net's summary answers "extreme over every pin
// but one" with the bits a min/max fold over the others gives, and an
// in-place replace either keeps it equal to a fresh summary or asks for
// one — on nets full of ties and of both zeros.
func TestExtremesMatchFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	vals := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 20000; trial++ {
		d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10), RowHeight: 1, SiteWidth: 1}
		n := d.AddNet("", 1)
		k := 1 + rng.Intn(5)
		for p := 0; p < k; p++ {
			// x + -0 is x for both zeros, so each pin keeps its sign.
			d.Connect(d.AddCell(netlist.Cell{X: vals[rng.Intn(len(vals))]}), n, math.Copysign(0, -1), 0)
		}
		r := loaded(t, d)
		e := &r.ext[n].x
		if bb := d.NetBBox(n); math.Float64bits(e.lo) != math.Float64bits(bb.Lo.X) || math.Float64bits(e.hi) != math.Float64bits(bb.Hi.X) {
			t.Fatalf("trial %d pins %v: extremes (%v, %v), NetBBox (%v, %v)", trial, r.px, e.lo, e.hi, bb.Lo.X, bb.Hi.X)
		}
		for q := range d.Pins {
			lo, hi := math.Inf(1), math.Inf(-1)
			for o := range d.Pins {
				if o != q {
					lo, hi = min(lo, r.px[o]), max(hi, r.px[o])
				}
			}
			glo, ghi := e.without(r.px[q])
			if math.Float64bits(glo) != math.Float64bits(lo) || math.Float64bits(ghi) != math.Float64bits(hi) {
				t.Fatalf("trial %d pins %v: without pin %d = (%v, %v), fold (%v, %v)", trial, r.px, q, glo, ghi, lo, hi)
			}
		}
		q := rng.Intn(k)
		v := vals[rng.Intn(len(vals))]
		kept := *e
		ok := kept.replace(r.px[q], v)
		r.px[q] = v
		r.recomputeAxis(n, false)
		if ok && kept != *e {
			t.Fatalf("trial %d pins %v: replace kept %+v, fresh %+v", trial, r.px, kept, *e)
		}
	}
}
