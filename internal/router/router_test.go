package router

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"puffer/internal/cong"
	"puffer/internal/geom"
	"puffer/internal/netlist"
)

func testDesign() *netlist.Design {
	return &netlist.Design{
		Name:      "rt",
		Region:    geom.RectWH(0, 0, 64, 64),
		RowHeight: 1,
		SiteWidth: 0.25,
		Layers:    netlist.DefaultLayers(),
	}
}

func sparseLayers() []netlist.Layer {
	return []netlist.Layer{
		{Name: "M1", Dir: netlist.Horizontal, Width: 0.5, Spacing: 0.5},
		{Name: "M2", Dir: netlist.Vertical, Width: 0.5, Spacing: 0.5},
	}
}

func TestRouteSimpleNet(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 4})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 50, Y: 4})
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)
	if res.Segments != 1 {
		t.Fatalf("segments = %d, want 1", res.Segments)
	}
	// Straight horizontal route: WL close to the pin distance.
	want := 46.0
	if math.Abs(res.WL-want) > 4 {
		t.Errorf("WL = %v, want ~%v", res.WL, want)
	}
	if res.HOF != 0 || res.VOF != 0 {
		t.Errorf("overflow on an empty chip: %v/%v", res.HOF, res.VOF)
	}
}

func TestPathsAreConnected(t *testing.T) {
	d := testDesign()
	rng := rand.New(rand.NewSource(3))
	var ids []int
	for k := 0; k < 60; k++ {
		ids = append(ids, d.AddCell(netlist.Cell{
			W: 1, H: 1,
			X: rng.Float64() * 63,
			Y: rng.Float64() * 63,
		}))
	}
	for k := 0; k+2 < 60; k += 3 {
		n := d.AddNet("", 1)
		d.Connect(ids[k], n, 0.5, 0.5)
		d.Connect(ids[k+1], n, 0.5, 0.5)
		d.Connect(ids[k+2], n, 0.5, 0.5)
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32

	r := &router{cfg: cfg}
	res := Route(d, cfg)
	_ = r
	if res.Segments == 0 {
		t.Fatal("no segments")
	}
	if res.WL <= 0 {
		t.Error("zero wirelength")
	}
}

// Verify each routed path is a contiguous 4-neighbour walk from source to
// sink Gcell by exercising the internals.
func TestSegmentPathContiguity(t *testing.T) {
	d := testDesign()
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	r := &router{cfg: cfg}
	r.m = cong.NewMap(d, 32, 32)
	r.histH = make([]float64, 32*32)
	r.histV = make([]float64, 32*32)
	s := segment{ai: 2, aj: 3, bi: 20, bj: 17}
	r.routeSegment(&s)
	if len(s.path) == 0 {
		t.Fatal("no path")
	}
	first, last := int(s.path[0]), int(s.path[len(s.path)-1])
	if first != r.m.Index(2, 3) || last != r.m.Index(20, 17) {
		t.Fatalf("path endpoints %d..%d, want %d..%d", first, last, r.m.Index(2, 3), r.m.Index(20, 17))
	}
	for k := 1; k < len(s.path); k++ {
		dlt := abs(int(s.path[k]) - int(s.path[k-1]))
		if dlt != 1 && dlt != r.m.W {
			t.Fatalf("non-adjacent step at %d: delta %d", k, dlt)
		}
	}
	// Path length bounded: between Manhattan distance and a loose detour
	// factor.
	manhattan := 18 + 14
	if len(s.path)-1 < manhattan {
		t.Errorf("path shorter than Manhattan distance: %d < %d", len(s.path)-1, manhattan)
	}
	if len(s.path)-1 > 3*manhattan {
		t.Errorf("path detours wildly: %d steps", len(s.path)-1)
	}
}

func TestRouterDetoursAroundBlockage(t *testing.T) {
	d := testDesign()
	d.Layers = sparseLayers()
	// Wall of blockage across the middle except a gap at the top.
	for l := range d.Layers {
		d.Blockages = append(d.Blockages, netlist.Blockage{
			Rect: geom.RectWH(30, 0, 4, 56), Layer: l,
		})
	}
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 4})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 58, Y: 4})
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	cfg.WindowMargin = 32 // let it reach the gap
	res := Route(d, cfg)
	// The straight path is 54; the detour through the top gap adds ~2×26
	// vertical. Expect WL noticeably above straight-line.
	if res.WL < 80 {
		t.Errorf("WL = %v, expected detour above 80", res.WL)
	}
	if res.HOF > 1 {
		t.Errorf("HOF = %v%% despite available detour", res.HOF)
	}
}

func TestNegotiationReducesOverflow(t *testing.T) {
	// Many parallel nets through a narrow horizontal corridor; negotiation
	// must spread them across rows.
	d := testDesign()
	d.Layers = sparseLayers()
	for k := 0; k < 12; k++ {
		a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 30 + 0.1*float64(k)})
		b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 58, Y: 30 + 0.1*float64(k)})
		n := d.AddNet("", 1)
		d.Connect(a, n, 0.5, 0.5)
		d.Connect(b, n, 0.5, 0.5)
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32

	noNeg := cfg
	noNeg.MaxRipup = 0
	r0 := Route(d, noNeg)
	r1 := Route(d, cfg)
	if r1.HOF > r0.HOF {
		t.Errorf("negotiation increased HOF: %v -> %v", r0.HOF, r1.HOF)
	}
	if r1.Rerouted == 0 && r0.HOF > 0 {
		t.Error("nothing rerouted despite overflow")
	}
}

func TestOverflowReportedWhenUnavoidable(t *testing.T) {
	// Zero-capacity design: every route overflows.
	d := testDesign()
	d.Layers = []netlist.Layer{
		{Name: "M1", Dir: netlist.Horizontal, Width: 50, Spacing: 50},
		{Name: "M2", Dir: netlist.Vertical, Width: 50, Spacing: 50},
	}
	for k := 0; k < 6; k++ {
		a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 30})
		b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 58, Y: 30})
		n := d.AddNet("", 1)
		d.Connect(a, n, 0.5, 0.5)
		d.Connect(b, n, 0.5, 0.5)
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)
	if res.HOF <= 0 {
		t.Errorf("HOF = %v, want > 0 on a zero-capacity chip", res.HOF)
	}
}

func TestAutoGridSelection(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 4})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 50, Y: 50})
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	res := Route(d, DefaultConfig())
	if res.Map.W < 16 || res.Map.H < 16 {
		t.Errorf("auto grid too small: %dx%d", res.Map.W, res.Map.H)
	}
}

func TestDemandConservation(t *testing.T) {
	// Total deposited demand equals path boundary crossings.
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 4})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 50, Y: 4})
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	cfg.PinCost = 0 // isolate wire demand
	res := Route(d, cfg)
	sum := 0.0
	for i := range res.Map.DmdH {
		sum += res.Map.DmdH[i] + res.Map.DmdV[i]
	}
	// A k-step path deposits k units total (0.5 per side per crossing).
	steps := res.WL / 2 // Gcell size is 2
	if math.Abs(sum-steps) > 1e-9 {
		t.Errorf("total demand %v != steps %v", sum, steps)
	}
}

func BenchmarkRoute500Nets(b *testing.B) {
	d := testDesign()
	rng := rand.New(rand.NewSource(1))
	var ids []int
	for k := 0; k < 500; k++ {
		ids = append(ids, d.AddCell(netlist.Cell{
			W: 1, H: 1,
			X: rng.Float64() * 63,
			Y: rng.Float64() * 63,
		}))
	}
	for k := 0; k+3 < 500; k += 2 {
		n := d.AddNet("", 1)
		d.Connect(ids[k], n, 0.5, 0.5)
		d.Connect(ids[k+1], n, 0.5, 0.5)
		d.Connect(ids[k+3], n, 0.5, 0.5)
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 64, 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Route(d, cfg)
	}
}

// heapPQ is pq as container/heap drives it: the open list the router used
// before its typed push and pop.
type heapPQ []pqItem

func (p heapPQ) Len() int           { return len(p) }
func (p heapPQ) Less(i, j int) bool { return p[i].prio < p[j].prio }
func (p heapPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *heapPQ) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *heapPQ) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// TestOpenListMatchesHeap: random push/pop sequences over few distinct
// priorities pop in exactly container/heap's order, ties included.
func TestOpenListMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		var got pq
		var want heapPQ
		levels := 1 + rng.Intn(6)
		for op := 0; op < 2000; op++ {
			if len(got) == 0 || rng.Intn(5) < 3 {
				it := pqItem{prio: float64(rng.Intn(levels)) / 2, state: int32(op)}
				got.push(it)
				heap.Push(&want, it)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(pqItem)
			if g != w {
				t.Fatalf("trial %d op %d: pop %+v, container/heap %+v", trial, op, g, w)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(pqItem); g != w {
				t.Fatalf("trial %d drain: pop %+v, container/heap %+v", trial, g, w)
			}
		}
	}
}
