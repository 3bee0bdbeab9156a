package density

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"puffer/internal/geom"
)

// responseTables are the frequency-response tables as the seven-stage
// solve kept them, flat [v*M+u], with the 4/(M·N) analysis normalization
// and the u=0 / v=0 halving folded in: ψ̂ = ρ̂·psiTab, Êx = ρ̂·exTab,
// Êy = ρ̂·eyTab.
func responseTables(g *Grid) (psiTab, exTab, eyTab []float64) {
	m, n := g.M, g.N
	psiTab, exTab, eyTab = make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
	norm := 4 / (float64(m) * float64(n))
	for v := 0; v < n; v++ {
		kv := g.sy.Freq(v) / g.BinH
		for u := 0; u < m; u++ {
			ku := g.sx.Freq(u) / g.BinW
			k2 := float64(ku*ku) + float64(kv*kv)
			if k2 <= 0 {
				continue
			}
			c := norm
			if u == 0 {
				c /= 2
			}
			if v == 0 {
				c /= 2
			}
			idx := v*m + u
			a := c / k2
			psiTab[idx] = a
			exTab[idx] = a * ku
			eyTab[idx] = a * kv
		}
	}
	return psiTab, exTab, eyTab
}

// potential synthesizes the electric potential ψ (cosines in both axes)
// from the charge spectrum the grid's last executed Solve left in coef.
// The placement path never reads ψ; the tests use it to check the solve
// against Poisson's equation and the energy of Eq. 3.
func potential(g *Grid) []float64 {
	m, n := g.M, g.N
	sx, sy := g.sx.CloneTransform(), g.sy.CloneTransform()
	psi, _, _ := responseTables(g)
	for i, c := range g.coef {
		psi[i] *= c
	}
	col, out := make([]float64, n), make([]float64, n)
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			col[v] = psi[v*m+u]
		}
		sy.EvalCos(col, out)
		for j := 0; j < n; j++ {
			psi[j*m+u] = out[j]
		}
	}
	row := make([]float64, m)
	for j := 0; j < n; j++ {
		copy(row, psi[j*m:(j+1)*m])
		sx.EvalCos(row, psi[j*m:(j+1)*m])
	}
	return psi
}

// energy returns the total potential energy Σ ρ·ψ·binArea of the grid's
// last solve (Eq. 3 up to the constant factor absorbed by λ).
func energy(g *Grid) float64 {
	e := 0.0
	for i, psi := range potential(g) {
		e += g.Rho[i] * psi
	}
	return e * (g.BinW * g.BinH)
}

// refSolve is the solve as it stood before the fused column pass, run
// serially on private buffers: row DCTs, column DCTs, the frequency
// response into two spectrum buffers, then per field a column synthesis
// pass and a row synthesis pass — seven team stages in all. It returns the
// charge spectrum and both field components; Solve must reproduce all
// three bit for bit.
func refSolve(g *Grid) (coef, ex, ey []float64) {
	m, n := g.M, g.N
	sx, sy := g.sx.CloneTransform(), g.sy.CloneTransform()
	row := make([]float64, m)
	col, colOut := make([]float64, n), make([]float64, n)
	coef = make([]float64, m*n)
	bufEx, bufEy := make([]float64, m*n), make([]float64, m*n)
	ex, ey = make([]float64, m*n), make([]float64, m*n)

	for j := 0; j < n; j++ {
		sx.CosCoeffs(g.Rho[j*m:(j+1)*m], coef[j*m:(j+1)*m])
	}
	for u := 0; u < m; u++ {
		for j := 0; j < n; j++ {
			col[j] = coef[j*m+u]
		}
		sy.CosCoeffs(col, colOut)
		for v := 0; v < n; v++ {
			coef[v*m+u] = colOut[v]
		}
	}
	_, exTab, eyTab := responseTables(g)
	for v := 0; v < n; v++ {
		for idx := v * m; idx < (v+1)*m; idx++ {
			c := coef[idx]
			bufEx[idx] = c * exTab[idx]
			bufEy[idx] = c * eyTab[idx]
		}
	}
	synthesize := func(coef, out []float64, sinX, sinY bool) {
		for u := 0; u < m; u++ {
			for v := 0; v < n; v++ {
				col[v] = coef[v*m+u]
			}
			if sinY {
				sy.EvalSin(col, colOut)
			} else {
				sy.EvalCos(col, colOut)
			}
			for j := 0; j < n; j++ {
				out[j*m+u] = colOut[j]
			}
		}
		for j := 0; j < n; j++ {
			r := out[j*m : (j+1)*m]
			copy(row, r)
			if sinX {
				sx.EvalSin(row, r)
			} else {
				sx.EvalCos(row, r)
			}
		}
	}
	synthesize(bufEx, ex, true, false)
	synthesize(bufEy, ey, false, true)
	return coef, ex, ey
}

// checkSolveAgainstReference runs refSolve and then Solve on g's charge
// and fails unless the spectrum and both field components have the same
// bits.
func checkSolveAgainstReference(t *testing.T, g *Grid, label string) {
	t.Helper()
	wantCoef, wantEx, wantEy := refSolve(g)
	g.Solve()
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"coef", g.coef, wantCoef}, {"Ex", g.Ex, wantEx}, {"Ey", g.Ey, wantEy}} {
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", label, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestSolveMatchesSevenStageReference holds the three-stage solve to the
// seven-stage reference bit for bit: square and M ≠ N grids, grids
// narrower than one panel (M < 8), charge with signed zeros and
// subnormals, on started teams of 1, 2 and 3 executors.
func TestSolveMatchesSevenStageReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dims := [][2]int{{2, 2}, {2, 16}, {4, 2}, {4, 32}, {8, 4}, {16, 16}, {32, 8}, {64, 128}, {256, 64}}
	rng := rand.New(rand.NewSource(5))
	for _, d := range dims {
		m, n := d[0], d[1]
		region := geom.RectWH(0, 0, float64(3*m), float64(2*n))
		rects := rectSoup(4*m+20, region)
		for _, workers := range []int{1, 2, 3} {
			g := NewGrid(region, m, n)
			g.SetTeam(startedTeam(t, workers))
			g.DepositRects(rects)
			// Empty, negative-zero and subnormal bins next to the deposit.
			for i := range g.Rho {
				switch rng.Intn(6) {
				case 0:
					g.Rho[i] = 0
				case 1:
					g.Rho[i] = math.Copysign(0, -1)
				case 2:
					g.Rho[i] = math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
				}
			}
			g.voidFingerprint()
			checkSolveAgainstReference(t, g, fmt.Sprintf("%dx%d workers=%d", m, n, workers))
		}
	}
}
