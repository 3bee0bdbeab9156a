package router

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// TestPinCostDeposited verifies each pin adds pinCost demand in both
// directions in its Gcell.
func TestPinCostDeposited(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4, Y: 4})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 4.5, Y: 4}) // same Gcell
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.4, 0.5)
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)
	i, j := res.Map.GcellOf(geom.Pt(4.5, 4.5))
	idx := res.Map.Index(i, j)
	// Two pins, local net (no wire demand since same Gcell).
	if math.Abs(res.Map.DmdH[idx]-2*pinCost) > 1e-9 {
		t.Errorf("DmdH = %v, want %v", res.Map.DmdH[idx], 2*pinCost)
	}
	if math.Abs(res.Map.DmdV[idx]-2*pinCost) > 1e-9 {
		t.Errorf("DmdV = %v, want %v", res.Map.DmdV[idx], 2*pinCost)
	}
}

// TestPackedPinsOverflow: cramming pin-dense cells into one Gcell must
// overflow even though all nets are local — the mechanism cell padding
// relieves.
func TestPackedPinsOverflow(t *testing.T) {
	d := testDesign()
	d.Layers = sparseLayers()
	var ids []int
	for k := 0; k < 12; k++ {
		ids = append(ids, d.AddCell(netlist.Cell{
			W: 0.3, H: 1, X: 4 + 0.3*float64(k%4), Y: 4 + float64(k/4)*0.1,
		}))
	}
	for k := 0; k+1 < len(ids); k++ {
		n := d.AddNet("", 1)
		for p := 0; p < 4; p++ {
			d.Connect(ids[(k+p)%len(ids)], n, 0.1, 0.5)
		}
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)
	if res.HOF <= 0 && res.VOF <= 0 {
		t.Error("packed pin cluster did not overflow")
	}

	// Spreading the same cells across many Gcells fixes it.
	d2 := testDesign()
	d2.Layers = sparseLayers()
	var ids2 []int
	for k := 0; k < 12; k++ {
		ids2 = append(ids2, d2.AddCell(netlist.Cell{
			W: 0.3, H: 1, X: 4 + 4*float64(k%4), Y: 4 + 4*float64(k/4),
		}))
	}
	for k := 0; k+1 < len(ids2); k++ {
		n := d2.AddNet("", 1)
		for p := 0; p < 4; p++ {
			d2.Connect(ids2[(k+p)%len(ids2)], n, 0.1, 0.5)
		}
	}
	res2 := Route(d2, cfg)
	if res2.HOF+res2.VOF >= res.HOF+res.VOF {
		t.Errorf("spreading did not reduce overflow: %v vs %v",
			res2.HOF+res2.VOF, res.HOF+res.VOF)
	}
}

// Property: routed wirelength is at least the sum of Manhattan distances
// between segment endpoints (in Gcell units).
func TestRoutedWLLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := testDesign()
	var ids []int
	for k := 0; k < 40; k++ {
		ids = append(ids, d.AddCell(netlist.Cell{
			W: 1, H: 1, X: rng.Float64() * 63, Y: rng.Float64() * 63,
		}))
	}
	for k := 0; k+1 < len(ids); k += 2 {
		n := d.AddNet("", 1)
		d.Connect(ids[k], n, 0.5, 0.5)
		d.Connect(ids[k+1], n, 0.5, 0.5)
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)

	lower := 0.0
	for k := 0; k+1 < len(ids); k += 2 {
		a := d.Cells[ids[k]].Center()
		b := d.Cells[ids[k+1]].Center()
		ai, aj := res.Map.GcellOf(a)
		bi, bj := res.Map.GcellOf(b)
		lower += math.Abs(float64(ai-bi))*res.Map.GW + math.Abs(float64(aj-bj))*res.Map.GH
	}
	if res.WL < lower-1e-6 {
		t.Errorf("routed WL %v below Manhattan lower bound %v", res.WL, lower)
	}
}
