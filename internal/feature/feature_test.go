package feature

import (
	"math"
	"testing"

	"puffer/internal/cong"
	"puffer/internal/geom"
	"puffer/internal/netlist"
)

func testDesign() *netlist.Design {
	return &netlist.Design{
		Name:      "t",
		Region:    geom.RectWH(0, 0, 32, 32),
		RowHeight: 1,
		SiteWidth: 0.2,
		Layers:    netlist.DefaultLayers(),
	}
}

func TestSATMeanMatchesNaive(t *testing.T) {
	w, h := 5, 4
	grid := make([]float64, w*h)
	for i := range grid {
		grid[i] = float64(i * i % 7)
	}
	s := newSAT(grid, w, h)
	for j0 := 0; j0 < h; j0++ {
		for i0 := 0; i0 < w; i0++ {
			for j1 := j0; j1 < h; j1++ {
				for i1 := i0; i1 < w; i1++ {
					sum, n := 0.0, 0
					for j := j0; j <= j1; j++ {
						for i := i0; i <= i1; i++ {
							sum += grid[j*w+i]
							n++
						}
					}
					want := sum / float64(n)
					if got := s.mean(i0, j0, i1, j1); math.Abs(got-want) > 1e-12 {
						t.Fatalf("mean(%d,%d,%d,%d) = %v, want %v", i0, j0, i1, j1, got, want)
					}
				}
			}
		}
	}
}

func TestSATMeanClamps(t *testing.T) {
	grid := []float64{1, 2, 3, 4}
	s := newSAT(grid, 2, 2)
	if got := s.mean(-5, -5, 10, 10); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("clamped full mean = %v, want 2.5", got)
	}
}

func TestSampleInterior(t *testing.T) {
	if got := sampleInterior(3, 4, 4); got != nil {
		t.Errorf("adjacent sampleInterior = %v, want nil", got)
	}
	got := sampleInterior(0, 5, 10) // interior 1..4 all fit
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("small interior = %v", got)
	}
	got = sampleInterior(0, 100, 4)
	if len(got) != 4 {
		t.Fatalf("sampled = %v, want 4 values", got)
	}
	for _, v := range got {
		if v <= 0 || v >= 100 {
			t.Errorf("sample %d outside interior", v)
		}
	}
}

// congestedCorner builds a design plus map where the lower-left Gcell
// region is overloaded and the rest has slack.
func congestedCorner() (*netlist.Design, *cong.Map) {
	d := testDesign()
	// One cell in the congested corner, one in the calm area.
	d.AddCell(netlist.Cell{Name: "hot", W: 1, H: 1, X: 1, Y: 1})
	d.AddCell(netlist.Cell{Name: "cold", W: 1, H: 1, X: 25, Y: 25})
	m := cong.NewMap(d, 8, 8)
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			idx := m.Index(i, j)
			m.DmdH[idx] = m.CapH[idx] * 2
			m.DmdV[idx] = m.CapV[idx] * 1.5
		}
	}
	return d, m
}

func TestLocalCongestionSeparatesCells(t *testing.T) {
	d, m := congestedCorner()
	s := Extract(d, m, nil, DefaultParams())
	hot := s.Vec[0][LocalCg]
	cold := s.Vec[1][LocalCg]
	if hot <= 0 {
		t.Errorf("hot cell LocalCg = %v, want > 0", hot)
	}
	if cold >= 0 {
		t.Errorf("cold cell LocalCg = %v, want < 0 (signed slack preserved)", cold)
	}
	if hot <= cold {
		t.Errorf("hot %v <= cold %v", hot, cold)
	}
}

func TestSurroundingIsSmoother(t *testing.T) {
	d, m := congestedCorner()
	s := Extract(d, m, nil, Params{KernelMargin: 3})
	// The surrounding mean over a window spanning hot and calm Gcells must
	// lie strictly between the extremes.
	hotLocal := s.Vec[0][LocalCg]
	hotSurr := s.Vec[0][SurroundCg]
	if !(hotSurr < hotLocal) {
		t.Errorf("surround %v not below local max %v", hotSurr, hotLocal)
	}
	// Kernel margin 0 degenerates to the cell's own Gcell mean.
	s0 := Extract(d, m, nil, Params{KernelMargin: 0})
	if s0.Vec[0][SurroundCg] < s.Vec[0][SurroundCg] {
		t.Errorf("zero-margin surround %v below wide-margin %v", s0.Vec[0][SurroundCg], s.Vec[0][SurroundCg])
	}
}

func TestPinDensityFeatures(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{Name: "a", W: 1, H: 1, X: 1, Y: 1})
	b := d.AddCell(netlist.Cell{Name: "b", W: 1, H: 1, X: 25, Y: 25})
	n := d.AddNet("n", 1)
	// Many pins on cell a's Gcell.
	for k := 0; k < 8; k++ {
		d.Connect(a, n, 0.1*float64(k), 0.5)
	}
	d.Connect(b, n, 0, 0)
	e := cong.NewEstimator(d, 8, 8, cong.DefaultParams())
	m := e.Estimate()
	s := Extract(d, m, e.Trees, DefaultParams())
	if s.Vec[0][LocalPinDensity] <= s.Vec[1][LocalPinDensity] {
		t.Errorf("pin-heavy cell density %v <= light cell %v",
			s.Vec[0][LocalPinDensity], s.Vec[1][LocalPinDensity])
	}
	if s.Vec[0][SurroundPinDensity] <= 0 {
		t.Error("surround pin density not positive")
	}
}

func TestPinCongestionUsesTopology(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{Name: "a", W: 1, H: 1, X: 2, Y: 10})
	b := d.AddCell(netlist.Cell{Name: "b", W: 1, H: 1, X: 26, Y: 10})
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	e := cong.NewEstimator(d, 8, 8, cong.Params{PinPenalty: 0})
	m := e.Estimate()

	s := Extract(d, m, e.Trees, DefaultParams())
	// Both pins see the same single path, so their cells' PinCg match.
	if math.Abs(s.Vec[0][PinCg]-s.Vec[1][PinCg]) > 1e-12 {
		t.Errorf("PinCg differs: %v vs %v", s.Vec[0][PinCg], s.Vec[1][PinCg])
	}
	base := s.Vec[0][PinCg]

	// Choke the straight row: the only I-path gets congested, and since
	// the segment is straight (no L/Z alternatives), PinCg must rise.
	for i := 0; i < m.W; i++ {
		idx := m.Index(i, 2)
		m.DmdH[idx] = m.CapH[idx] * 3
	}
	s2 := Extract(d, m, e.Trees, DefaultParams())
	if s2.Vec[0][PinCg] <= base {
		t.Errorf("PinCg %v did not rise above %v after choking the path", s2.Vec[0][PinCg], base)
	}
}

func TestPinCongestionPrefersCleanDetour(t *testing.T) {
	// Diagonal two-pin net: one L corner is congested, the other clean.
	// Eq. 13 takes the min over candidate paths, so PCg must stay low.
	d := testDesign()
	a := d.AddCell(netlist.Cell{Name: "a", W: 1, H: 1, X: 2, Y: 2})
	b := d.AddCell(netlist.Cell{Name: "b", W: 1, H: 1, X: 26, Y: 26})
	n := d.AddNet("n", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	e := cong.NewEstimator(d, 8, 8, cong.Params{PinPenalty: 0})
	m := e.Estimate()
	// Congest the upper-left corner Gcell (0,6) region — on the VH path
	// but not the HV path.
	for j := 3; j < 8; j++ {
		idx := m.Index(0, j)
		m.DmdV[idx] = m.CapV[idx] * 5
	}
	s := Extract(d, m, e.Trees, DefaultParams())
	if s.Vec[0][PinCg] > 0 {
		t.Errorf("PinCg = %v, want <= 0 (clean HV detour exists)", s.Vec[0][PinCg])
	}
}

func TestFixedCellsGetZeroVectors(t *testing.T) {
	d, m := congestedCorner()
	d.Cells[0].Fixed = true
	s := Extract(d, m, nil, DefaultParams())
	for f := 0; f < Count; f++ {
		if s.Vec[0][f] != 0 {
			t.Errorf("fixed cell feature %s = %v, want 0", Names[f], s.Vec[0][f])
		}
	}
}

func TestCellSpanningMultipleGcellsTakesMax(t *testing.T) {
	d := testDesign()
	// Wide cell spanning Gcells (0..2, 0).
	d.AddCell(netlist.Cell{Name: "wide", W: 11, H: 1, X: 0.5, Y: 0.5})
	m := cong.NewMap(d, 8, 8)
	idx := m.Index(2, 0)
	m.DmdH[idx] = m.CapH[idx] * 2 // only the third Gcell is hot
	s := Extract(d, m, nil, DefaultParams())
	if s.Vec[0][LocalCg] <= 0 {
		t.Errorf("wide cell LocalCg = %v, want > 0 (max over overlapped Gcells)", s.Vec[0][LocalCg])
	}
}

func BenchmarkExtract(b *testing.B) {
	d := testDesign()
	for k := 0; k < 500; k++ {
		x := float64(k%25) + 0.5
		y := float64(k/25) + 0.5
		d.AddCell(netlist.Cell{W: 0.8, H: 1, X: x, Y: y})
	}
	for k := 0; k+3 < 500; k += 2 {
		n := d.AddNet("", 1)
		d.Connect(k, n, 0.2, 0.5)
		d.Connect(k+1, n, 0.2, 0.5)
		d.Connect(k+3, n, 0.2, 0.5)
	}
	e := cong.NewEstimator(d, 16, 16, cong.DefaultParams())
	m := e.Estimate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(d, m, e.Trees, DefaultParams())
	}
}
