package puffer

import (
	"testing"

	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// addQuadrantFence adds a row-aligned fence in the upper-right quadrant of
// d, assigns every eighth movable cell to it, and returns its rectangle.
func addQuadrantFence(d *netlist.Design) geom.Rect {
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
	return fr
}

// TestFullFlowWithFences runs the complete PUFFER flow on a design with a
// placement fence and verifies the constraint survives every stage
// (global placement, padding, legalization, detailed placement).
func TestFullFlowWithFences(t *testing.T) {
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	d := synth.Generate(p, 2000, 5)
	fr := addQuadrantFence(d)
	cfg := DefaultConfig()
	cfg.Place.MaxIters = 300
	if _, err := Run(d, cfg); err != nil {
		t.Fatal(err)
	}
	if vs := legal.Check(d, 0); len(vs) != 0 {
		t.Fatalf("%d violations after fenced flow, first: %s", len(vs), vs[0])
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fence != 1 {
			continue
		}
		if c.X < fr.Lo.X-1e-6 || c.X+c.W > fr.Hi.X+1e-6 ||
			c.Y < fr.Lo.Y-1e-6 || c.Y+c.H > fr.Hi.Y+1e-6 {
			t.Fatalf("fenced cell %d at (%v,%v) outside fence %v", i, c.X, c.Y, fr)
		}
	}
}
