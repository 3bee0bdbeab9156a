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

// netAxisReference is the kernel netAxis replaced, kept verbatim as the
// oracle: two math.Exp calls per pin.
func netAxisReference(gamma float64, ep, em, xs []float64, pins []int, pinG []float64, w float64) float64 {
	inv := 1 / gamma
	xmax, xmin := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x > xmax {
			xmax = x
		}
		if x < xmin {
			xmin = x
		}
	}
	// Max side: weights e^{(x-xmax)/γ}; min side: weights e^{(xmin-x)/γ}.
	var s0p, s1p, s0m, s1m float64
	for i, x := range xs {
		ep[i] = math.Exp((x - xmax) * inv)
		em[i] = math.Exp((xmin - x) * inv)
		s0p += ep[i]
		s1p += x * ep[i]
		s0m += em[i]
		s1m += x * em[i]
	}
	wp := s1p / s0p // smooth max
	wm := s1m / s0m // smooth min
	for i, x := range xs {
		gp := ep[i] * ((1 + x*inv) - wp*inv) / s0p
		gm := em[i] * ((1 - x*inv) + wm*inv) / s0m
		pinG[pins[i]] = w * (gp - gm)
	}
	return wp - wm
}

func axisWLReference(gamma float64, xs []float64) float64 {
	inv := 1 / gamma
	xmax, xmin := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x > xmax {
			xmax = x
		}
		if x < xmin {
			xmin = x
		}
	}
	var s0p, s1p, s0m, s1m float64
	for _, x := range xs {
		ep := math.Exp((x - xmax) * inv)
		em := math.Exp((xmin - x) * inv)
		s0p += ep
		s1p += x * ep
		s0m += em
		s1m += x * em
	}
	return s1p/s0p - s1m/s0m
}

// referenceEval is WirelengthAndGrad and Wirelength over the reference
// kernels: per-pin gradient slots, per-cell sums in pin order, and the
// total over the model's fixed shards.
func referenceEval(d *netlist.Design, gamma float64, gradX, gradY []float64) (withGrad, plain float64) {
	pinGX, pinGY := make([]float64, len(d.Pins)), make([]float64, len(d.Pins))
	wlGrad, wlPlain := make([]float64, len(d.Nets)), make([]float64, len(d.Nets))
	for n := range d.Nets {
		net := &d.Nets[n]
		if len(net.Pins) < 2 {
			continue
		}
		wt := net.Weight
		if wt == 0 {
			wt = 1
		}
		k := len(net.Pins)
		px, py := make([]float64, k), make([]float64, k)
		for i, pid := range net.Pins {
			p := d.PinPos(pid)
			px[i], py[i] = p.X, p.Y
		}
		ep, em := make([]float64, k), make([]float64, k)
		wlGrad[n] = wt*netAxisReference(gamma, ep, em, px, net.Pins, pinGX, wt) +
			wt*netAxisReference(gamma, ep, em, py, net.Pins, pinGY, wt)
		wlPlain[n] = wt * (axisWLReference(gamma, px) + axisWLReference(gamma, py))
	}
	for c := range d.Cells {
		var gx, gy float64
		for _, pid := range d.Cells[c].Pins {
			gx += pinGX[pid]
			gy += pinGY[pid]
		}
		gradX[c], gradY[c] = gx, gy
	}
	shards := min(max(len(d.Nets)/wlNetsPerShard, 1), maxWLWorkers)
	sum := func(wl []float64) float64 {
		total := 0.0
		for s := 0; s < shards; s++ {
			lo, hi := par.ShardRange(s, shards, len(wl))
			t := 0.0
			for _, v := range wl[lo:hi] {
				t += v
			}
			total += t
		}
		return total
	}
	return sum(wlGrad), sum(wlPlain)
}

// cornerDesign is a random design whose pins pile onto shared coordinates:
// cells stacked on one spot, pins at offset zero and at -0, cells at the
// origin and at -0, and nets of one cell's pins only.
func cornerDesign(seed int64) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{Region: geom.RectWH(0, 0, 64, 64)}
	negZero := math.Copysign(0, -1)
	spots := []float64{0, negZero, 3, 17.5, 40}
	for i := 0; i < 400; i++ {
		c := netlist.Cell{W: 1, H: 1, X: rng.Float64() * 63, Y: rng.Float64() * 63}
		if rng.Intn(3) == 0 {
			c.X = spots[rng.Intn(len(spots))]
		}
		if rng.Intn(3) == 0 {
			c.Y = spots[rng.Intn(len(spots))]
		}
		d.AddCell(c)
	}
	offs := []float64{0, negZero, 0.5, 1}
	for n := 0; n < 5000; n++ {
		net := d.AddNet("", []float64{0, 1, 2.5}[rng.Intn(3)])
		k := 2 + rng.Intn(6)
		if rng.Intn(50) == 0 {
			k = 40
		}
		c := rng.Intn(len(d.Cells))
		for p := 0; p < k; p++ {
			if rng.Intn(4) > 0 {
				c = rng.Intn(len(d.Cells))
			}
			d.Connect(c, net, offs[rng.Intn(len(offs))], offs[rng.Intn(len(offs))])
		}
	}
	return d
}

// TestSharedExponentialsMatchReference: sharing the exponentials a net
// knows changes no bit — totals with and without gradients and every
// cell's gradient equal the two-calls-per-pin kernel's, on designs full of
// coincident pins and signed zeros, at γ from sharp to smooth, serially
// and on three executors.
func TestSharedExponentialsMatchReference(t *testing.T) {
	if math.Exp(0) != 1 || math.Exp(math.Copysign(0, -1)) != 1 {
		t.Fatal("e^{±0} is not 1")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for seed := int64(1); seed <= 3; seed++ {
		d := cornerDesign(seed)
		for _, gamma := range []float64{0.01, 0.5, 8, 1e6} {
			wantGX, wantGY := make([]float64, len(d.Cells)), make([]float64, len(d.Cells))
			wantGrad, wantPlain := referenceEval(d, gamma, wantGX, wantGY)
			for _, workers := range []int{1, 3} {
				m := New(d, gamma)
				m.SetWorkers(workers)
				m.Team().Start()
				gx, gy := make([]float64, len(d.Cells)), make([]float64, len(d.Cells))
				got := m.WirelengthAndGrad(gx, gy)
				plain := m.Wirelength()
				m.Team().Stop()
				if math.Float64bits(got) != math.Float64bits(wantGrad) || math.Float64bits(plain) != math.Float64bits(wantPlain) {
					t.Fatalf("seed %d γ=%v workers=%d: totals %v/%v, reference %v/%v", seed, gamma, workers, got, plain, wantGrad, wantPlain)
				}
				for c := range gx {
					if math.Float64bits(gx[c]) != math.Float64bits(wantGX[c]) || math.Float64bits(gy[c]) != math.Float64bits(wantGY[c]) {
						t.Fatalf("seed %d γ=%v workers=%d: cell %d gradient (%v, %v), reference (%v, %v)",
							seed, gamma, workers, c, gx[c], gy[c], wantGX[c], wantGY[c])
					}
				}
			}
		}
	}
}

// TestWeightSkipsKnownExponentials pins the saving: on one 4-pin net with
// distinct coordinates the kernel calls math.Exp for the two interior pins
// on both sides plus once for the shared edge value — 5 calls, not 8.
func TestWeightSkipsKnownExponentials(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	xmax, xmin := bounds(xs)
	inv := 1 / 2.0
	edge := math.Exp((xmin - xmax) * inv)
	calls := 1 // edge
	for _, x := range xs {
		for _, side := range [][2]float64{{x - xmax, xmin}, {xmin - x, xmax}} {
			d, opposite := side[0], side[1]
			if d != 0 && x != opposite {
				calls++
			}
			want := math.Exp(d * inv)
			if got := weight(d, inv, edge, x == opposite, true); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("x=%v d=%v: weight %v, math.Exp %v", x, d, got, want)
			}
		}
	}
	if calls != 5 {
		t.Errorf("%d math.Exp calls, want 5", calls)
	}
}
