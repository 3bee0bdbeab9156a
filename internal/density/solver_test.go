package density

import (
	"math"
	"testing"

	"puffer/internal/fft"
	"puffer/internal/geom"
)

// TestGridComplexVsRealSolve cross-checks the two transform engines: the
// fused real-input path must reproduce the mirror-extension reference's
// potential and field to rounding error.
func TestGridComplexVsRealSolve(t *testing.T) {
	region := geom.RectWH(0, 0, 64, 64)
	rects := rectSoup(200, region)

	ref := newGrid(region, fft.NewSpectral(64), fft.NewSpectral(32))
	ref.DepositRects(rects)
	ref.Solve()

	g := NewGrid(region, 64, 32)
	g.DepositRects(rects)
	g.Solve()

	psi, refPsi := g.Potential(), ref.Potential()
	scale := 0.0
	for _, v := range refPsi {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	tol := 1e-11 * scale
	for i := range psi {
		if math.Abs(psi[i]-refPsi[i]) > tol ||
			math.Abs(g.Ex[i]-ref.Ex[i]) > tol ||
			math.Abs(g.Ey[i]-ref.Ey[i]) > tol {
			t.Fatalf("bin %d: real/complex mismatch psi %v/%v ex %v/%v ey %v/%v",
				i, psi[i], refPsi[i], g.Ex[i], ref.Ex[i], g.Ey[i], ref.Ey[i])
		}
	}
}

// TestSolveSkipOnRedeposit covers the fingerprint skip, including the
// placement engine's actual call pattern: a full deposit + solve, a
// movables-only deposit (overflow probe, no solve) in between, then the
// same full deposit again — the second solve must be skipped and leave the
// field bit-identical.
func TestSolveSkipOnRedeposit(t *testing.T) {
	region := geom.RectWH(0, 0, 32, 32)
	full := rectSoup(50, region)
	probe := full[:30] // a different list, as computeOverflow would deposit

	g := NewGrid(region, 16, 16)
	g.DepositRects(full)
	g.Solve()
	if g.Solves() != 1 || g.SolveSkips() != 0 {
		t.Fatalf("after first solve: solves=%d skips=%d", g.Solves(), g.SolveSkips())
	}
	if a, f, s := g.PhaseWalls(); a <= 0 || f < 0 || s <= 0 {
		t.Errorf("PhaseWalls = %v/%v/%v, want positive analysis and synthesis", a, f, s)
	}
	psi := append([]float64(nil), g.Potential()...)
	ex := append([]float64(nil), g.Ex...)
	ey := append([]float64(nil), g.Ey...)

	g.DepositRects(probe) // no solve: overflow-style probe
	g.DepositRects(full)
	g.Solve()
	if g.Solves() != 1 || g.SolveSkips() != 1 {
		t.Fatalf("after redeposit solve: solves=%d skips=%d, want 1/1", g.Solves(), g.SolveSkips())
	}
	for i, v := range g.Potential() {
		if v != psi[i] || g.Ex[i] != ex[i] || g.Ey[i] != ey[i] {
			t.Fatalf("skipped solve changed bin %d: psi %v/%v ex %v/%v ey %v/%v",
				i, v, psi[i], g.Ex[i], ex[i], g.Ey[i], ey[i])
		}
	}

	// A genuinely different list must solve again.
	g.DepositRects(probe)
	g.Solve()
	if g.Solves() != 2 || g.SolveSkips() != 1 {
		t.Fatalf("after new-list solve: solves=%d skips=%d, want 2/1", g.Solves(), g.SolveSkips())
	}
}

// TestSolveSkipInvalidation proves every non-DepositRects charge mutation
// voids the skip: AddRect, Reset, a new fixed baseline, and direct Rho
// writes all force the next Solve to run.
func TestSolveSkipInvalidation(t *testing.T) {
	region := geom.RectWH(0, 0, 32, 32)
	rects := rectSoup(40, region)

	g := NewGrid(region, 16, 16)
	g.DepositRects(rects)
	g.Solve()

	// AddRect on top of the deposit: same list must not skip afterwards.
	g.AddRect(geom.RectWH(1, 1, 3, 3), 1)
	g.DepositRects(rects)
	g.Solve()
	if g.Solves() != 2 {
		t.Fatalf("solve skipped across AddRect: solves=%d", g.Solves())
	}

	// A changed fixed baseline makes the same rect list a different charge.
	g.AddFixedRect(geom.RectWH(20, 20, 6, 6), 1)
	g.DepositRects(rects)
	g.Solve()
	if g.Solves() != 3 {
		t.Fatalf("solve skipped across AddFixedRect: solves=%d", g.Solves())
	}

	// Reset, then direct Rho writes (TestPoissonResidual style): no
	// fingerprint, so Solve always runs.
	g.Reset()
	g.Rho[0] += 1
	g.Solve()
	g.Solve()
	if g.Solves() != 5 || g.SolveSkips() != 0 {
		t.Fatalf("direct-Rho solves skipped: solves=%d skips=%d", g.Solves(), g.SolveSkips())
	}
}

// TestGridSteadyStateZeroAllocAlternating guards the full solve path under
// the zero-alloc contract: alternating between two rect lists defeats the
// fingerprint skip, so every iteration rasterizes and solves for real.
func TestGridSteadyStateZeroAllocAlternating(t *testing.T) {
	region := geom.RectWH(0, 0, 64, 64)
	a := rectSoup(64, region)
	b := append([]geom.Rect(nil), a...)
	for i := range b {
		b[i] = b[i].Translate(geom.Pt(0.25, -0.25))
	}
	g := NewGrid(region, 32, 32)
	g.DepositRects(a) // warm up both fingerprint buffers
	g.Solve()
	g.DepositRects(b)
	g.Solve()

	flip := false
	if n := testing.AllocsPerRun(10, func() {
		r := a
		if flip {
			r = b
		}
		flip = !flip
		g.DepositRects(r)
		g.Solve()
		g.ForceOnRect(r[0])
		g.OverflowOf(r[:40], 0.8, 100)
	}); n != 0 {
		t.Errorf("alternating steady-state iteration allocates %v per run, want 0", n)
	}
	if g.SolveSkips() != 0 {
		t.Errorf("alternating deposits skipped %d solves, want 0", g.SolveSkips())
	}
}
