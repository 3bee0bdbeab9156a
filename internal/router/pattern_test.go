package router

import (
	"math"
	"testing"

	"puffer/internal/netlist"
)

func twoPin(d *netlist.Design, x1, y1, x2, y2 float64) {
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: x1, Y: y1})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: x2, Y: y2})
	n := d.AddNet("", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
}

func TestPatternRouteTakesLShape(t *testing.T) {
	d := testDesign()
	twoPin(d, 4, 4, 40, 40)
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)
	// An L route on an empty chip: exactly Manhattan length, no overflow.
	ai, aj := res.Map.GcellOf(d.PinPos(0))
	bi, bj := res.Map.GcellOf(d.PinPos(1))
	want := (math.Abs(float64(ai-bi)))*res.Map.GW + math.Abs(float64(aj-bj))*res.Map.GH
	if math.Abs(res.WL-want) > 1e-9 {
		t.Errorf("pattern WL = %v, want Manhattan %v", res.WL, want)
	}
	if res.HOF != 0 || res.VOF != 0 {
		t.Errorf("pattern route overflowed an empty chip: %v/%v", res.HOF, res.VOF)
	}
}

func TestPatternMatchesMazeOnEmptyChip(t *testing.T) {
	build := func() *netlist.Design {
		d := testDesign()
		twoPin(d, 4, 10, 50, 30)
		twoPin(d, 10, 50, 55, 8)
		twoPin(d, 30, 4, 30, 58)
		return d
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32

	pat := Route(build(), cfg)
	mazeOnly := evalCosts
	mazeOnly.patternFirst = false
	maze := routeCosts(build(), cfg, mazeOnly)
	if math.Abs(pat.WL-maze.WL) > 1e-9 {
		t.Errorf("pattern WL %v != maze WL %v on an empty chip", pat.WL, maze.WL)
	}
	if pat.HOF != maze.HOF || pat.VOF != maze.VOF {
		t.Errorf("overflow mismatch: %v/%v vs %v/%v", pat.HOF, pat.VOF, maze.HOF, maze.VOF)
	}
}

func TestPatternFallsBackUnderCongestion(t *testing.T) {
	d := testDesign()
	d.Layers = sparseLayers()
	// Saturate the two L corners' rows/columns so both Ls overflow and
	// the maze router must find the detour.
	for k := 0; k < 30; k++ {
		twoPin(d, 4, 30, 58, 30)
	}
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 32, 32
	res := Route(d, cfg)
	// With 30 identical nets on ~4 tracks the chip overflows either way;
	// the point is that fallback routing still happens and spreads demand
	// across rows (more than one row carries horizontal demand).
	rows := map[int]bool{}
	for j := 0; j < res.Map.H; j++ {
		for i := 0; i < res.Map.W; i++ {
			if res.Map.DmdH[res.Map.Index(i, j)] > 1 {
				rows[j] = true
			}
		}
	}
	if len(rows) < 2 {
		t.Errorf("congested demand not spread: %d rows used", len(rows))
	}
}
