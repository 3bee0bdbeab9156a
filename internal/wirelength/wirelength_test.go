package wirelength

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/par"
)

// randomDesign builds a design with nc unit cells and nn random nets of
// 2-5 pins each.
func randomDesign(seed int64, nc, nn int) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{Region: geom.RectWH(0, 0, 100, 100)}
	for i := 0; i < nc; i++ {
		d.AddCell(netlist.Cell{
			W: 1, H: 1,
			X: rng.Float64() * 99,
			Y: rng.Float64() * 99,
		})
	}
	for n := 0; n < nn; n++ {
		net := d.AddNet("", 1)
		k := 2 + rng.Intn(4)
		for p := 0; p < k; p++ {
			d.Connect(rng.Intn(nc), net, rng.Float64(), rng.Float64())
		}
	}
	return d
}

func TestWAUnderestimatesHPWL(t *testing.T) {
	d := randomDesign(1, 30, 40)
	m := New(d, 2.0)
	wa := m.Wirelength()
	hpwl := d.HPWL()
	if wa > hpwl+1e-9 {
		t.Errorf("WA %v > HPWL %v", wa, hpwl)
	}
	if wa <= 0 {
		t.Errorf("WA = %v, want > 0", wa)
	}
}

func TestWAConvergesToHPWLAsGammaShrinks(t *testing.T) {
	d := randomDesign(2, 20, 25)
	hpwl := d.HPWL()
	prevErr := math.Inf(1)
	for _, gamma := range []float64{8, 2, 0.5, 0.05} {
		wa := New(d, gamma).Wirelength()
		err := hpwl - wa
		if err < -1e-9 {
			t.Fatalf("gamma=%v: WA exceeds HPWL by %v", gamma, -err)
		}
		if err > prevErr+1e-9 {
			t.Errorf("gamma=%v: error %v did not shrink from %v", gamma, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 0.01*hpwl {
		t.Errorf("at gamma=0.05 WA still off by %v of HPWL %v", prevErr, hpwl)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	d := randomDesign(3, 12, 18)
	m := New(d, 1.5)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	m.WirelengthAndGrad(gx, gy)

	const h = 1e-5
	for c := 0; c < len(d.Cells); c++ {
		orig := d.Cells[c].X
		d.Cells[c].X = orig + h
		up := m.Wirelength()
		d.Cells[c].X = orig - h
		down := m.Wirelength()
		d.Cells[c].X = orig
		want := (up - down) / (2 * h)
		if math.Abs(gx[c]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("cell %d: dW/dx = %v, finite diff %v", c, gx[c], want)
		}

		orig = d.Cells[c].Y
		d.Cells[c].Y = orig + h
		up = m.Wirelength()
		d.Cells[c].Y = orig - h
		down = m.Wirelength()
		d.Cells[c].Y = orig
		want = (up - down) / (2 * h)
		if math.Abs(gy[c]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("cell %d: dW/dy = %v, finite diff %v", c, gy[c], want)
		}
	}
}

func TestGradientAndWirelengthAgree(t *testing.T) {
	d := randomDesign(4, 25, 30)
	m := New(d, 1.0)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	withGrad := m.WirelengthAndGrad(gx, gy)
	plain := m.Wirelength()
	if math.Abs(withGrad-plain) > 1e-9*plain {
		t.Errorf("WirelengthAndGrad = %v, Wirelength = %v", withGrad, plain)
	}
}

func TestNetWeightScalesGradient(t *testing.T) {
	build := func(weight float64) (*netlist.Design, []float64) {
		d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10)}
		a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 1, Y: 1})
		b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 7, Y: 4})
		n := d.AddNet("n", weight)
		d.Connect(a, n, 0, 0)
		d.Connect(b, n, 0, 0)
		gx := make([]float64, 2)
		gy := make([]float64, 2)
		New(d, 1).WirelengthAndGrad(gx, gy)
		return d, gx
	}
	_, g1 := build(1)
	_, g3 := build(3)
	for i := range g1 {
		if math.Abs(g3[i]-3*g1[i]) > 1e-9 {
			t.Errorf("weight-3 gradient %v != 3× weight-1 gradient %v", g3[i], g1[i])
		}
	}
}

func TestSinglePinNetIgnored(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10)}
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 3, Y: 3})
	n := d.AddNet("single", 1)
	d.Connect(a, n, 0, 0)
	m := New(d, 1)
	if wl := m.Wirelength(); wl != 0 {
		t.Errorf("single-pin net WL = %v, want 0", wl)
	}
	gx := make([]float64, 1)
	gy := make([]float64, 1)
	if wl := m.WirelengthAndGrad(gx, gy); wl != 0 || gx[0] != 0 || gy[0] != 0 {
		t.Error("single-pin net produced gradient")
	}
}

// The gradient must be translation invariant: shifting the whole design
// leaves WA and its gradient unchanged (this exercises the numeric
// stabilization — naive exponentials overflow at x ≈ 1e5 with small γ).
func TestTranslationInvarianceAndStability(t *testing.T) {
	d := randomDesign(5, 15, 20)
	m := New(d, 0.7)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	wl0 := m.WirelengthAndGrad(gx, gy)

	for i := range d.Cells {
		d.Cells[i].X += 1e7
		d.Cells[i].Y += 1e7
	}
	gx2 := make([]float64, len(d.Cells))
	gy2 := make([]float64, len(d.Cells))
	wl1 := m.WirelengthAndGrad(gx2, gy2)
	if math.IsNaN(wl1) || math.IsInf(wl1, 0) {
		t.Fatal("WA overflowed after translation")
	}
	if math.Abs(wl1-wl0) > 1e-6*wl0 {
		t.Errorf("WA changed under translation: %v -> %v", wl0, wl1)
	}
	for i := range gx {
		if math.Abs(gx[i]-gx2[i]) > 1e-6*(1+math.Abs(gx[i])) {
			t.Fatalf("gradient changed under translation at cell %d", i)
		}
	}
}

func BenchmarkWirelengthAndGrad(b *testing.B) {
	d := randomDesign(6, 5000, 6000)
	m := New(d, 1.0)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range gx {
			gx[j], gy[j] = 0, 0
		}
		m.WirelengthAndGrad(gx, gy)
	}
}

// startedTeam returns a started team of workers executors — the form the
// placement engine hands its kernels — stopped when the test ends.
func startedTeam(tb testing.TB, workers int) *par.Team {
	tm := par.NewTeam(workers)
	tm.Start()
	tb.Cleanup(tm.Stop)
	return tm
}

// TestParallelMatchesSerialBitExact proves net sharding never changes a
// bit: total and every per-cell gradient are identical for any worker
// count, on a started team.
func TestParallelMatchesSerialBitExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	d := randomDesign(7, 200, 300)
	ref := New(d, 1.5)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	wl := ref.WirelengthAndGrad(gx, gy)
	wlOnly := ref.Wirelength()

	for _, workers := range []int{2, 3, 4, 16} {
		m := New(d, 1.5)
		m.SetTeam(startedTeam(t, workers))
		px := make([]float64, len(d.Cells))
		py := make([]float64, len(d.Cells))
		got := m.WirelengthAndGrad(px, py)
		if got != wl {
			t.Fatalf("workers=%d: WL %v, want %v (bit-exact)", workers, got, wl)
		}
		if got2 := m.Wirelength(); got2 != wlOnly {
			t.Fatalf("workers=%d: Wirelength %v, want %v (bit-exact)", workers, got2, wlOnly)
		}
		for c := range gx {
			if px[c] != gx[c] || py[c] != gy[c] {
				t.Fatalf("workers=%d: cell %d grad (%v,%v), want (%v,%v)",
					workers, c, px[c], py[c], gx[c], gy[c])
			}
		}
	}
}

// TestWirelengthZeroAllocSteadyState guards the hot path: after New,
// repeated evaluations allocate nothing — serially or on a started team.
func TestWirelengthZeroAllocSteadyState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := randomDesign(9, 100, 150)
	for _, workers := range []int{1, 4} {
		m := New(d, 2.0)
		m.SetTeam(startedTeam(t, workers))
		gx := make([]float64, len(d.Cells))
		gy := make([]float64, len(d.Cells))
		m.WirelengthAndGrad(gx, gy) // warm up
		if n := testing.AllocsPerRun(10, func() {
			for i := range gx {
				gx[i], gy[i] = 0, 0
			}
			m.WirelengthAndGrad(gx, gy)
			m.Wirelength()
			m.HPWL()
		}); n != 0 {
			t.Errorf("workers=%d: steady-state evaluation allocates %v per run, want 0", workers, n)
		}
	}
}

// TestModelHPWLEqualsDesignHPWL: the sharded exact HPWL must equal the
// serial Design.HPWL bit for bit at any worker count, including weighted,
// unweighted (0 → 1), single-pin and empty nets, and after cells move.
func TestModelHPWLEqualsDesignHPWL(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	d := randomDesign(11, 300, 5000) // > wlNetsPerShard nets
	rng := rand.New(rand.NewSource(12))
	for n := range d.Nets {
		switch n % 5 {
		case 0:
			d.Nets[n].Weight = 0
		case 1:
			d.Nets[n].Weight = 0.5 + 3*rng.Float64()
		}
	}
	lone := d.AddNet("single", 2)
	d.Connect(3, lone, 0.25, 0.75)
	d.AddNet("empty", 1)
	d.Cells[7].X, d.Cells[7].Y = math.Copysign(0, -1), 0

	for _, workers := range []int{1, 2, 3} {
		m := New(d, 1.5)
		m.SetWorkers(workers)
		for round := 0; round < 3; round++ {
			if got, want := m.HPWL(), d.HPWL(); got != want || got <= 0 {
				t.Fatalf("workers=%d round %d: Model.HPWL %v, Design.HPWL %v (want equal, > 0)", workers, round, got, want)
			}
			for i := range d.Cells {
				d.Cells[i].X += rng.NormFloat64()
				d.Cells[i].Y += rng.NormFloat64()
			}
		}
	}
}
