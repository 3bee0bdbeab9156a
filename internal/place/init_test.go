package place

import (
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// TestQuadraticInitPullsTowardAnchors: a movable cell connected to a fixed
// pin should start near that pin rather than at the region center.
func TestQuadraticInitPullsTowardAnchors(t *testing.T) {
	d := &netlist.Design{
		Region:    geom.RectWH(0, 0, 64, 64),
		RowHeight: 1, SiteWidth: 0.25,
		Layers: netlist.DefaultLayers(),
	}
	anchor := d.AddCell(netlist.Cell{Name: "pad", W: 1, H: 1, X: 2, Y: 2, Fixed: true})
	c := d.AddCell(netlist.Cell{W: 1, H: 1})
	n := d.AddNet("n", 1)
	d.Connect(anchor, n, 0.5, 0.5)
	d.Connect(c, n, 0.5, 0.5)

	cfg := quickConfig()
	cfg.QuadraticInit = true
	p := New(d, cfg)
	x0 := p.opt.Current()
	// Cell center starts much closer to the anchor (2.5, 2.5) than to the
	// region center (32, 32).
	start := geom.Pt(x0[0], x0[len(p.movable)+p.nFill])
	if start.ManhattanDist(geom.Pt(2.5, 2.5)) > start.ManhattanDist(geom.Pt(32, 32)) {
		t.Errorf("quadratic init left the cell at %v, not pulled toward the anchor", start)
	}
}

// TestQuadraticInitClustersConnectedCells: connected cells start closer
// together than unconnected ones.
func TestQuadraticInitClustersConnectedCells(t *testing.T) {
	d := smallDesign(31, 200, false)
	cfg := quickConfig()
	cfg.QuadraticInit = true
	p := New(d, cfg)
	x0 := p.opt.Current()
	nm := len(p.movable)
	off := nm + p.nFill

	pos := func(k int) geom.Point { return geom.Pt(x0[k], x0[off+k]) }
	conn, unconn, n := 0.0, 0.0, 0
	for i := range d.Nets {
		pins := d.Nets[i].Pins
		if len(pins) < 2 {
			continue
		}
		a := d.Pins[pins[0]].Cell
		b := d.Pins[pins[1]].Cell
		conn += pos(a).ManhattanDist(pos(b))
		// Compare against a far-away index pair (deterministic).
		c2 := (a + nm/2) % nm
		unconn += pos(a).ManhattanDist(pos(c2))
		n++
	}
	if n == 0 {
		t.Fatal("no nets")
	}
	if conn >= unconn {
		t.Errorf("connected pairs avg %v >= unconnected %v", conn/float64(n), unconn/float64(n))
	}
}

// TestQuadraticInitFlowStillConverges: the full engine works from the
// quadratic start and reaches the usual overflow.
func TestQuadraticInitFlowStillConverges(t *testing.T) {
	d := smallDesign(32, 250, false)
	cfg := quickConfig()
	cfg.QuadraticInit = true
	res := New(d, cfg).Run(nil)
	if res.Overflow > 0.12 {
		t.Errorf("overflow = %v with quadratic init", res.Overflow)
	}
}

// TestQuadraticInitRespectsFences: fenced cells stay in their fence.
func TestQuadraticInitRespectsFences(t *testing.T) {
	d := smallDesign(33, 100, false)
	d.Fences = append(d.Fences, netlist.Fence{Name: "f", Rect: geom.RectWH(2, 2, 10, 8)})
	for _, ci := range d.MovableIDs()[:10] {
		d.Cells[ci].Fence = 1
	}
	cfg := quickConfig()
	cfg.QuadraticInit = true
	p := New(d, cfg)
	x0 := p.opt.Current()
	nm := len(p.movable)
	off := nm + p.nFill
	for k, ci := range p.movable {
		if d.Cells[ci].Fence != 1 {
			continue
		}
		if x0[k] < 2 || x0[k] > 12 || x0[off+k] < 2 || x0[off+k] > 10 {
			t.Fatalf("fenced cell %d initialized at (%v,%v) outside fence", ci, x0[k], x0[off+k])
		}
	}
}
