package density

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/par"
)

func TestAddRectConservesArea(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 32, 32), 16, 16)
	r := geom.RectWH(3.3, 5.7, 7.9, 2.45)
	g.AddRect(r, 1)
	binArea := g.BinW * g.BinH
	sum := 0.0
	for _, v := range g.Rho {
		sum += v * binArea
	}
	if math.Abs(sum-r.Area()) > 1e-9 {
		t.Errorf("deposited area = %v, want %v", sum, r.Area())
	}
}

func TestAddRectClipsToRegion(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 16, 16), 8, 8)
	g.AddRect(geom.RectWH(-4, -4, 8, 8), 1) // half in, half out per axis
	binArea := g.BinW * g.BinH
	sum := 0.0
	for _, v := range g.Rho {
		sum += v * binArea
	}
	if math.Abs(sum-16) > 1e-9 { // 4x4 quadrant inside
		t.Errorf("clipped deposit = %v, want 16", sum)
	}
	// Entirely outside contributes nothing.
	g.AddRect(geom.RectWH(100, 100, 5, 5), 1)
	sum2 := 0.0
	for _, v := range g.Rho {
		sum2 += v * binArea
	}
	if math.Abs(sum2-sum) > 1e-12 {
		t.Error("outside rect deposited charge")
	}
}

func TestResetKeepsFixedBaseline(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 16, 16), 8, 8)
	g.AddFixedRect(geom.RectWH(0, 0, 4, 4), 1)
	g.AddRect(geom.RectWH(8, 8, 4, 4), 1)
	g.Reset()
	i, j := g.BinOf(geom.Pt(1, 1))
	if g.Rho[g.Index(i, j)] == 0 {
		t.Error("fixed charge lost after Reset")
	}
	i, j = g.BinOf(geom.Pt(9, 9))
	if g.Rho[g.Index(i, j)] != 0 {
		t.Error("movable charge survived Reset")
	}
}

// A concentrated charge blob must push a nearby test rectangle away from
// the blob: positive x-force to the blob's right, negative to its left.
func TestFieldPushesAwayFromCharge(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 64, 64), 64, 64)
	g.AddRect(geom.RectWH(28, 28, 8, 8), 4) // dense blob at center
	g.Solve()

	fxR, _ := g.ForceOnRect(geom.RectWH(44, 30, 2, 2))
	if fxR <= 0 {
		t.Errorf("force right of blob fx = %v, want > 0", fxR)
	}
	fxL, _ := g.ForceOnRect(geom.RectWH(18, 30, 2, 2))
	if fxL >= 0 {
		t.Errorf("force left of blob fx = %v, want < 0", fxL)
	}
	_, fyU := g.ForceOnRect(geom.RectWH(30, 44, 2, 2))
	if fyU <= 0 {
		t.Errorf("force above blob fy = %v, want > 0", fyU)
	}
	_, fyD := g.ForceOnRect(geom.RectWH(30, 18, 2, 2))
	if fyD >= 0 {
		t.Errorf("force below blob fy = %v, want < 0", fyD)
	}
}

// Symmetric charge: field at the symmetry center vanishes, and mirrored
// probes feel mirrored forces.
func TestFieldSymmetry(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 32, 32), 32, 32)
	g.AddRect(geom.RectWH(14, 14, 4, 4), 1)
	g.Solve()
	fx, fy := g.ForceOnRect(geom.RectWH(15, 15, 2, 2))
	if math.Abs(fx) > 1e-6 || math.Abs(fy) > 1e-6 {
		t.Errorf("center force = (%v, %v), want ~0", fx, fy)
	}
	fxR, _ := g.ForceOnRect(geom.RectWH(20, 15, 2, 2))
	fxL, _ := g.ForceOnRect(geom.RectWH(10, 15, 2, 2))
	if math.Abs(fxR+fxL) > 1e-6*math.Abs(fxR) {
		t.Errorf("mirror forces not antisymmetric: %v vs %v", fxR, fxL)
	}
}

// Poisson residual: for a smooth charge the discrete Laplacian of ψ must
// reproduce -ρ' (ρ minus its mean, since the DC mode is neutralized).
func TestPoissonResidual(t *testing.T) {
	m := 64
	g := NewGrid(geom.RectWH(0, 0, float64(m), float64(m)), m, m)
	// Smooth Gaussian blob.
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			dx := float64(i) - 31.5
			dy := float64(j) - 31.5
			g.Rho[g.Index(i, j)] = math.Exp(-(dx*dx + dy*dy) / (2 * 64))
		}
	}
	mean := 0.0
	for _, v := range g.Rho {
		mean += v
	}
	mean /= float64(m * m)
	g.Solve()
	psi := potential(g)

	h2 := g.BinW * g.BinH
	maxErr, maxRho := 0.0, 0.0
	for j := 8; j < m-8; j++ {
		for i := 8; i < m-8; i++ {
			lap := (psi[g.Index(i+1, j)] + psi[g.Index(i-1, j)] +
				psi[g.Index(i, j+1)] + psi[g.Index(i, j-1)] -
				4*psi[g.Index(i, j)]) / h2
			want := -(g.Rho[g.Index(i, j)] - mean)
			if e := math.Abs(lap - want); e > maxErr {
				maxErr = e
			}
			if v := math.Abs(want); v > maxRho {
				maxRho = v
			}
		}
	}
	if maxErr > 0.02*maxRho {
		t.Errorf("Poisson residual %v exceeds 2%% of max charge %v", maxErr, maxRho)
	}
}

// Energy of concentrated charge must exceed energy of the same charge
// spread uniformly — this is exactly why minimizing Eq. 3 spreads cells.
func TestEnergyFavorsSpreading(t *testing.T) {
	region := geom.RectWH(0, 0, 32, 32)
	conc := NewGrid(region, 32, 32)
	conc.AddRect(geom.RectWH(12, 12, 8, 8), 1)
	conc.Solve()

	spread := NewGrid(region, 32, 32)
	spread.AddRect(geom.RectWH(0, 0, 32, 32), 64.0/1024.0)
	spread.Solve()

	if energy(conc) <= energy(spread) {
		t.Errorf("energy concentrated %v <= spread %v", energy(conc), energy(spread))
	}
	if energy(spread) > 1e-9 {
		t.Errorf("uniform charge energy = %v, want ~0", energy(spread))
	}
}

func TestOverflowMetric(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 16, 16), 16, 16)
	// 16 area units concentrated in a 4x4 block: density 1 in those bins.
	g.AddRect(geom.RectWH(0, 0, 4, 4), 1)
	ovf := g.Overflow(0.5, 16)
	// Each of the 16 bins holds 1.0 against a target of 0.5 → overflow
	// 0.5 per bin × 16 bins × binArea 1 = 8, normalized by area 16 → 0.5.
	if math.Abs(ovf-0.5) > 1e-9 {
		t.Errorf("Overflow = %v, want 0.5", ovf)
	}
	// Spread uniformly: density 16/256 per bin, below target → 0.
	g2 := NewGrid(geom.RectWH(0, 0, 16, 16), 16, 16)
	g2.AddRect(geom.RectWH(0, 0, 16, 16), 16.0/256.0)
	if ovf := g2.Overflow(0.5, 16); ovf != 0 {
		t.Errorf("uniform Overflow = %v, want 0", ovf)
	}
	if got := g2.Overflow(0.5, 0); got != 0 {
		t.Errorf("zero-area Overflow = %v, want 0", got)
	}
}

func TestOverflowAccountsForFixed(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 16, 16), 16, 16)
	g.AddFixedRect(geom.RectWH(0, 0, 4, 4), 1) // bins fully blocked
	g.Reset()
	g.AddRect(geom.RectWH(0, 0, 4, 4), 0.25) // movable on top of macro
	// Free capacity under the macro is zero, so all 4 units overflow.
	ovf := g.Overflow(1.0, 4)
	if math.Abs(ovf-1.0) > 1e-9 {
		t.Errorf("Overflow over macro = %v, want 1", ovf)
	}
}

func TestForceOnEscapedRectPullsBack(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 32, 32), 32, 32)
	g.AddRect(geom.RectWH(24, 12, 8, 8), 2) // charge near right edge
	g.Solve()
	// A rect fully outside to the right should feel the field of the bin
	// nearest its clamped center — pointing left, away from the charge.
	fx, _ := g.ForceOnRect(geom.RectWH(40, 14, 2, 2))
	if fx >= 0 {
		t.Errorf("escaped rect fx = %v, want < 0 (pull back/left)", fx)
	}
}

func TestBinOfClamps(t *testing.T) {
	g := NewGrid(geom.RectWH(0, 0, 16, 16), 8, 8)
	i, j := g.BinOf(geom.Pt(-5, 100))
	if i != 0 || j != 7 {
		t.Errorf("BinOf clamped = (%d,%d), want (0,7)", i, j)
	}
	i, j = g.BinOf(geom.Pt(3, 3))
	if i != 1 || j != 1 {
		t.Errorf("BinOf = (%d,%d), want (1,1)", i, j)
	}
}

func TestBinRect(t *testing.T) {
	g := NewGrid(geom.RectWH(10, 20, 16, 32), 8, 8)
	r := g.BinRect(1, 2)
	if r.Lo != geom.Pt(12, 28) || r.W() != 2 || r.H() != 4 {
		t.Errorf("BinRect = %v", r)
	}
}

// TestNewGridRejectsBadSizes: a non-power-of-two or one-bin axis panics
// with the density package's own message, not one from inside fft.
func TestNewGridRejectsBadSizes(t *testing.T) {
	for _, dim := range [][2]int{{7, 8}, {1, 8}, {8, 1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "density:") {
					t.Errorf("NewGrid(%dx%d): panic %q, want a density: message", dim[0], dim[1], msg)
				}
			}()
			NewGrid(geom.RectWH(0, 0, 1, 1), dim[0], dim[1])
		}()
	}
}

func BenchmarkSolve128(b *testing.B) {
	g := NewGrid(geom.RectWH(0, 0, 128, 128), 128, 128)
	g.AddRect(geom.RectWH(30, 30, 40, 40), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Solve()
	}
}

// rectSoup builds a deterministic set of rectangles spread over (and
// slightly past) the region, exercising clipping and multi-bin overlap.
func rectSoup(n int, region geom.Rect) []geom.Rect {
	rects := make([]geom.Rect, n)
	rng := rand.New(rand.NewSource(42))
	for i := range rects {
		w := 0.5 + 6*rng.Float64()
		h := 0.5 + 6*rng.Float64()
		x := region.Lo.X - 2 + (region.W()+4)*rng.Float64()
		y := region.Lo.Y - 2 + (region.H()+4)*rng.Float64()
		rects[i] = geom.RectWH(x, y, w, h)
	}
	return rects
}

// TestDepositRectsMatchesSerialAddRect proves the banded parallel deposit
// is bit-identical to Reset + AddRect-in-order, for several worker counts.
func TestDepositRectsMatchesSerialAddRect(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	region := geom.RectWH(0, 0, 64, 64)
	rects := rectSoup(300, region)

	ref := NewGrid(region, 32, 32)
	ref.AddFixedRect(geom.RectWH(10, 10, 8, 8), 1)
	ref.Reset()
	for _, r := range rects {
		ref.AddRect(r, 1)
	}

	for _, workers := range []int{1, 2, 3, 4} {
		g := NewGrid(region, 32, 32)
		g.AddFixedRect(geom.RectWH(10, 10, 8, 8), 1)
		g.SetWorkers(workers)
		g.DepositRects(rects)
		for i := range g.Rho {
			if g.Rho[i] != ref.Rho[i] {
				t.Fatalf("workers=%d: Rho[%d] = %v, want %v (bit-exact)", workers, i, g.Rho[i], ref.Rho[i])
			}
		}
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

// TestSolveParallelMatchesSerial proves the sharded transform batches give
// bit-identical potential and field for any worker count, on a started
// team.
func TestSolveParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	region := geom.RectWH(0, 0, 64, 64)
	rects := rectSoup(200, region)

	ref := NewGrid(region, 32, 32)
	ref.DepositRects(rects)
	ref.Solve()
	refPsi := potential(ref)

	for _, workers := range []int{2, 3, 4, 16} {
		g := NewGrid(region, 32, 32)
		g.SetTeam(startedTeam(t, workers))
		g.DepositRects(rects)
		g.Solve()
		psi := potential(g)
		for i := range psi {
			if psi[i] != refPsi[i] || g.Ex[i] != ref.Ex[i] || g.Ey[i] != ref.Ey[i] {
				t.Fatalf("workers=%d: bin %d solve mismatch psi %v/%v ex %v/%v ey %v/%v",
					workers, i, psi[i], refPsi[i], g.Ex[i], ref.Ex[i], g.Ey[i], ref.Ey[i])
			}
		}
	}
}

// TestOverflowParallelMatchesSerial uses a grid large enough for multiple
// fixed reduction shards and checks the ratio is bit-identical across
// worker counts, on a started team.
func TestOverflowParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	region := geom.RectWH(0, 0, 256, 256)
	rects := rectSoup(500, region)

	ref := NewGrid(region, 128, 128)
	if ref.ovfShards < 2 {
		t.Fatalf("test wants multiple overflow shards, got %d", ref.ovfShards)
	}
	ref.DepositRects(rects)
	want := ref.Overflow(0.7, 1234.5)

	for _, workers := range []int{2, 4, 16} {
		g := NewGrid(region, 128, 128)
		g.SetTeam(startedTeam(t, workers))
		g.DepositRects(rects)
		if got := g.Overflow(0.7, 1234.5); got != want {
			t.Fatalf("workers=%d: overflow = %v, want %v (bit-exact)", workers, got, want)
		}
	}
}

// TestGridSteadyStateZeroAlloc guards the hot path: once the grid is built,
// deposit + solve + force (per rect and through the deposit's footprints) +
// overflow allocate nothing — serially or on a started team.
func TestGridSteadyStateZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	region := geom.RectWH(0, 0, 64, 64)
	rects := rectSoup(64, region)
	for _, workers := range []int{1, 4} {
		g := NewGrid(region, 32, 32)
		g.SetTeam(startedTeam(t, workers))
		g.DepositRects(rects) // warm up
		g.Solve()

		wide := geom.RectWH(1.5, 20.25, 2*footCols+9, 3) // > footCols columns at BinW 2
		if n := testing.AllocsPerRun(10, func() {
			g.DepositRects(rects)
			g.Solve()
			g.DepositRects(rects) // fingerprint hit: raster and solve skipped
			g.Solve()
			g.ForceOnRect(rects[0])
			g.ForceOnRect(wide)
			g.DepositedForce(len(rects) - 1)
			g.OverflowOf(rects[:32], 0.8, 100)
			g.Overflow(0.8, 100)
			g.AddRect(wide, 1) // voids the fingerprints: the next run rasterizes and solves
		}); n != 0 {
			t.Errorf("workers=%d: steady-state iteration allocates %v per run, want 0", workers, n)
		}
	}
}

// refDeposit and refForce are the pre-footprint loops — per-bin
// geom.Interval.Overlap on the math.Max/Min-clipped rectangle — kept as the
// reference the production footprint routine must match bit for bit.
func refDeposit(g *Grid, dst []float64, r geom.Rect, scale float64) {
	r = r.Intersect(g.Region)
	if r.Empty() {
		return
	}
	i0, i1, j0, j1 := refBinRange(g, r)
	invArea := scale / (g.BinW * g.BinH)
	for j := j0; j < j1; j++ {
		y0 := g.Region.Lo.Y + float64(j)*g.BinH
		oy := geom.Interval{Lo: y0, Hi: y0 + g.BinH}.Overlap(geom.Interval{Lo: r.Lo.Y, Hi: r.Hi.Y})
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			x0 := g.Region.Lo.X + float64(i)*g.BinW
			ox := geom.Interval{Lo: x0, Hi: x0 + g.BinW}.Overlap(geom.Interval{Lo: r.Lo.X, Hi: r.Hi.X})
			if ox > 0 {
				dst[j*g.M+i] += ox * oy * invArea
			}
		}
	}
}

func refForce(g *Grid, r geom.Rect) (fx, fy float64) {
	rc := r.Intersect(g.Region)
	if rc.Empty() {
		i, j := g.BinOf(g.Region.ClampPoint(r.Center()))
		return g.Ex[g.Index(i, j)] * r.Area(), g.Ey[g.Index(i, j)] * r.Area()
	}
	i0, i1, j0, j1 := refBinRange(g, rc)
	for j := j0; j < j1; j++ {
		y0 := g.Region.Lo.Y + float64(j)*g.BinH
		oy := geom.Interval{Lo: y0, Hi: y0 + g.BinH}.Overlap(geom.Interval{Lo: rc.Lo.Y, Hi: rc.Hi.Y})
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			x0 := g.Region.Lo.X + float64(i)*g.BinW
			ox := geom.Interval{Lo: x0, Hi: x0 + g.BinW}.Overlap(geom.Interval{Lo: rc.Lo.X, Hi: rc.Hi.X})
			if ox <= 0 {
				continue
			}
			a := ox * oy
			fx += a * g.Ex[j*g.M+i]
			fy += a * g.Ey[j*g.M+i]
		}
	}
	return fx, fy
}

func refBinRange(g *Grid, r geom.Rect) (i0, i1, j0, j1 int) {
	i0 = geom.ClampInt(int((r.Lo.X-g.Region.Lo.X)/g.BinW), 0, g.M-1)
	i1 = geom.ClampInt(int(math.Ceil((r.Hi.X-g.Region.Lo.X)/g.BinW)), i0+1, g.M)
	j0 = geom.ClampInt(int((r.Lo.Y-g.Region.Lo.Y)/g.BinH), 0, g.N-1)
	j1 = geom.ClampInt(int(math.Ceil((r.Hi.Y-g.Region.Lo.Y)/g.BinH)), j0+1, g.N)
	return
}

// edgeSoup is a seeded rect soup plus every geometry the footprint routine
// special-cases: edges exactly on bin boundaries, rects wider than the
// hoisted column buffer, rects partly and wholly outside the region (all
// four sides, and the corners), zero-area rects, and -0.0 coordinates.
func edgeSoup(seed int64, region geom.Rect, binW, binH float64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	lo, w, h := region.Lo, region.W(), region.H()
	negZero := math.Copysign(0, -1)
	rects := []geom.Rect{
		geom.RectWH(lo.X+4*binW, lo.Y+2*binH, 3*binW, 2*binH),        // all edges on boundaries
		geom.RectWH(lo.X, lo.Y, w, h),                                // the whole region
		geom.RectWH(lo.X+binW/3, lo.Y+5*binH, (footCols+4)*binW, 1),  // wider than the buffer
		geom.RectWH(lo.X-3*binW, lo.Y+binH/2, w+6*binW, 2.5*binH),    // wider than the region
		geom.RectWH(lo.X+2*binW, lo.Y+7*binH, (2*footCols)*binW, .1), // exactly two buffer chunks
		geom.RectWH(lo.X-5, lo.Y-5, 7, 7),                            // partly out, corner
		geom.RectWH(lo.X+w-1, lo.Y+h-1, 9, 9),                        // partly out, far corner
		geom.RectWH(lo.X-10, lo.Y+3, 4, 4),                           // wholly left
		geom.RectWH(lo.X+w+1, lo.Y+3, 4, 4),                          // wholly right
		geom.RectWH(lo.X+3, lo.Y-9, 4, 4),                            // wholly below
		geom.RectWH(lo.X+3, lo.Y+h, 4, 4),                            // wholly above, touching
		geom.RectWH(lo.X+w+2, lo.Y+h+2, 3, 3),                        // wholly out, corner
		geom.RectWH(lo.X+5, lo.Y+5, 0, 3),                            // zero width
		geom.RectWH(lo.X+5, lo.Y+5, 3, 0),                            // zero height
		geom.RectWH(lo.X+6*binW, lo.Y+6*binH, 0, 0),                  // a point on a bin corner
		{Lo: geom.Pt(negZero, negZero), Hi: geom.Pt(2.5, 1.5)},       // -0.0 lower corner
		{Lo: geom.Pt(-3, -2), Hi: geom.Pt(negZero, negZero)},         // -0.0 upper corner
		{Lo: geom.Pt(negZero, 1), Hi: geom.Pt(0, 2)},                 // -0.0 .. +0.0: empty
	}
	for i := 0; i < 400; i++ {
		rw := 0.2 + 7*rng.Float64()
		rh := 0.2 + 5*rng.Float64()
		x := lo.X - 4 + (w+8)*rng.Float64()
		y := lo.Y - 4 + (h+8)*rng.Float64()
		if i%7 == 0 { // snap the lower-left corner onto the bin lattice
			x = lo.X + binW*math.Floor((x-lo.X)/binW)
			y = lo.Y + binH*math.Floor((y-lo.Y)/binH)
		}
		rects = append(rects, geom.RectWH(x, y, rw, rh))
	}
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	return rects
}

// TestFootprintMatchesReferenceLoops is the bit-identity oracle for the
// shared footprint routine: deposited charge, fixed baseline, overflow probe
// and per-rect force all equal the reference loops exactly, for any worker
// count, on a zero-origin and an offset region.
func TestFootprintMatchesReferenceLoops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, region := range []geom.Rect{geom.RectWH(0, 0, 80, 48), geom.RectWH(-13.5, 7.25, 60, 96)} {
		const m, n = 32, 16
		fixed := geom.RectWH(region.Lo.X+11.3, region.Lo.Y+9.1, 17.7, 8.4)
		for seed := int64(1); seed <= 3; seed++ {
			rects := edgeSoup(seed, region, region.W()/m, region.H()/n)
			ref := NewGrid(region, m, n)
			want := make([]float64, m*n)
			refDeposit(ref, want, fixed, 0.75)
			for _, r := range rects {
				refDeposit(ref, want, r, 1)
			}
			for _, workers := range []int{1, 2, 3} {
				g := NewGrid(region, m, n)
				g.SetWorkers(workers)
				g.AddFixedRect(fixed, 0.75)
				g.OverflowOf(rects, 0.8, 1)
				g.DepositRects(rects)
				for i := range want {
					if g.Rho[i] != want[i] || g.probeRho[i] != want[i] {
						t.Fatalf("region %v seed %d workers %d: bin %d Rho %v probe %v, want %v (bit-exact)",
							region, seed, workers, i, g.Rho[i], g.probeRho[i], want[i])
					}
				}
				g.Solve()
				for k, r := range rects {
					fx, fy := g.ForceOnRect(r)
					dx, dy := g.DepositedForce(k)
					wx, wy := refForce(g, r)
					if fx != wx || fy != wy || dx != wx || dy != wy {
						t.Fatalf("region %v seed %d workers %d: rect %d %v force (%v,%v), deposited footprint (%v,%v), want (%v,%v) (bit-exact)",
							region, seed, workers, k, r, fx, fy, dx, dy, wx, wy)
					}
				}
			}
		}
	}
}

// TestOverflowOfLeavesChargeUntouched: the overflow probe must not disturb
// the charge, the field or either fingerprint, so the engine's re-deposit of
// the list it last solved skips both the raster and the solve.
func TestOverflowOfLeavesChargeUntouched(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	region := geom.RectWH(0, 0, 64, 64)
	full := rectSoup(120, region)
	probe := full[:70]
	for _, workers := range []int{1, 3} {
		g := NewGrid(region, 32, 32)
		g.SetWorkers(workers)
		g.AddFixedRect(geom.RectWH(20, 20, 9, 9), 1)
		g.DepositRects(full)
		g.Solve()
		rho := append([]float64(nil), g.Rho...)

		got := g.OverflowOf(probe, 0.6, 321.5)
		for i := range rho {
			if g.Rho[i] != rho[i] {
				t.Fatalf("workers=%d: OverflowOf changed Rho[%d]", workers, i)
			}
		}
		g.DepositRects(full)
		g.Solve()
		if g.RasterSkips() != 1 || g.Solves() != 1 || g.SolveSkips() != 1 {
			t.Fatalf("workers=%d: after probe, raster skips/solves/solve skips = %d/%d/%d, want 1/1/1",
				workers, g.RasterSkips(), g.Solves(), g.SolveSkips())
		}

		g.DepositRects(probe)
		if want := g.Overflow(0.6, 321.5); got != want || got <= 0 {
			t.Fatalf("workers=%d: OverflowOf = %v, DepositRects+Overflow = %v (want equal, > 0)", workers, got, want)
		}
		if g.OverflowOf(probe, 0.6, 0) != 0 {
			t.Errorf("workers=%d: zero-area OverflowOf != 0", workers)
		}
	}
}

// bandSoup is edgeSoup plus rects whose rows straddle the band edges of a
// 16-row grid split two and three ways (rows 5|6, 7|8, 10|11), one of them
// with its edges on the bin boundaries either side.
func bandSoup(seed int64, region geom.Rect, binW, binH float64) []geom.Rect {
	rects := edgeSoup(seed, region, binW, binH)
	lo := region.Lo
	for _, j := range []float64{6, 8, 11} {
		rects = append(rects,
			geom.RectWH(lo.X+1.3*binW, lo.Y+(j-0.4)*binH, 2.2*binW, 0.9*binH),
			geom.RectWH(lo.X+5*binW, lo.Y+(j-1)*binH, binW, 2*binH),
			geom.RectWH(lo.X+9.5*binW, lo.Y+(j-0.5)*binH, 0, binH))
	}
	return rects
}

// checkSharedFootprints deposits rects through DepositRects and reads every
// rect's force through DepositedForce, and requires both to equal Reset +
// AddRect per rect + ForceOnRect, bit for bit, at the given worker count.
func checkSharedFootprints(t *testing.T, region geom.Rect, m, n int, rects []geom.Rect, workers int) {
	t.Helper()
	fixed := geom.RectWH(region.Lo.X+11.3, region.Lo.Y+9.1, 17.7, 8.4)
	ref := NewGrid(region, m, n)
	ref.AddFixedRect(fixed, 1)
	ref.Reset()
	for _, r := range rects {
		ref.AddRect(r, 1)
	}
	ref.Solve()
	g := NewGrid(region, m, n)
	g.SetWorkers(workers)
	g.AddFixedRect(fixed, 1)
	g.OverflowOf(rects[len(rects)/2:], 0.8, 1) // the probe keeps footprints of its own
	g.DepositRects(rects)
	g.Solve()
	for i := range ref.Rho {
		if math.Float64bits(g.Rho[i]) != math.Float64bits(ref.Rho[i]) {
			t.Fatalf("workers %d: bin %d Rho %v, AddRect per rect %v", workers, i, g.Rho[i], ref.Rho[i])
		}
	}
	for k, r := range rects {
		fx, fy := g.DepositedForce(k)
		wx, wy := ref.ForceOnRect(r)
		if math.Float64bits(fx) != math.Float64bits(wx) || math.Float64bits(fy) != math.Float64bits(wy) {
			t.Fatalf("workers %d: rect %d %v deposited-footprint force (%v,%v), ForceOnRect (%v,%v)",
				workers, k, r, fx, fy, wx, wy)
		}
	}
}

// TestSharedFootprintsMatchPerRect: the footprints DepositRects resolves
// once, read by its bands and by DepositedForce, give the charge and the
// forces of AddRect and ForceOnRect called rect by rect — across band
// edges, on bin boundaries, half and wholly outside the region, at zero
// width — at Workers 1, 2 and 3.
func TestSharedFootprintsMatchPerRect(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, region := range []geom.Rect{geom.RectWH(0, 0, 80, 48), geom.RectWH(-13.5, 7.25, 60, 96)} {
		const m, n = 32, 16
		for seed := int64(1); seed <= 3; seed++ {
			rects := bandSoup(seed, region, region.W()/m, region.H()/n)
			for _, workers := range []int{1, 2, 3} {
				checkSharedFootprints(t, region, m, n, rects, workers)
			}
		}
	}
}

// FuzzDepositForceMatchesReference is TestSharedFootprintsMatchPerRect
// with one fuzzed rect placed among a seeded soup.
func FuzzDepositForceMatchesReference(f *testing.F) {
	f.Add(int64(1), 3.0, 4.0, 2.5, 1.5, uint8(2))
	f.Add(int64(2), -1.0, 15.0, 90.0, 0.0, uint8(3))
	f.Add(int64(3), 20.0, 18.0, 0.0, 0.0, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, x, y, w, h float64, workers uint8) {
		for _, v := range []float64{x, y, w, h} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		region := geom.RectWH(0, 0, 80, 48)
		const m, n = 32, 16
		rects := bandSoup(seed, region, region.W()/m, region.H()/n)
		at := int(uint64(seed) % uint64(len(rects)+1))
		rects = append(rects[:at], append([]geom.Rect{geom.RectWH(x, y, w, h)}, rects[at:]...)...)
		checkSharedFootprints(t, region, m, n, rects, 1+int(workers%3))
	})
}
