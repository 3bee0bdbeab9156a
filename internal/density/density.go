// Package density implements the electrostatic density model of the
// placement engine (paper Sec. II-B, Eqs. 3–6).
//
// The placement region is divided into an M×N bin grid. Every cell deposits
// its (padded) area as electric charge into the bins it overlaps (Eq. 6).
// The electric potential ψ and field E = -∇ψ are obtained by solving
// Poisson's equation ∇²ψ = -ρ spectrally in a half-sample cosine basis
// (Neumann boundary: no force pushes cells across the chip edge). The
// density penalty D(x, y) of Eq. 3 is the total potential energy Σ qᵢψ, and
// its gradient with respect to a cell position is -qᵢ·E at the cell.
//
// # Parallelism and determinism
//
// The grid is the placement engine's per-iteration hot path, so the heavy
// operations — rasterization (DepositRects), the spectral solve (Solve),
// and the overflow reduction (Overflow) — run across the executors of the
// grid's par.Team (SetWorkers, SetTeam).
// All of them are bit-deterministic regardless of the worker count:
//
//   - DepositRects shards the OUTPUT (bands of bin rows): each band owner
//     scans the rectangle list in order and accumulates only its own rows,
//     so every bin receives its contributions in the same rectangle order a
//     serial sweep would use — identical bits for any band count. This
//     replaces the per-worker-accumulator-plus-merge design: it needs no
//     extra grids, no zeroing, no merge pass, and is worker-count
//     independent rather than merely fixed-worker-count reproducible.
//   - Solve batches independent 1-D row/column transforms (each writes a
//     disjoint output range) over per-worker fft.Transform scratch cloned
//     from one precomputed plan, so scheduling cannot change any value.
//   - Overflow reduces over a FIXED shard count derived from the grid size
//     (never from the worker count) and sums the per-shard partials in
//     shard order.
//
// Once constructed (and after SetWorkers/SetTeam), the steady-state
// DepositRects → Solve → ForceOnRect → OverflowOf cycle performs no heap
// allocation — serial, or on a started team.
package density

import (
	"fmt"
	"math"
	"time"

	"puffer/internal/fft"
	"puffer/internal/geom"
	"puffer/internal/par"
)

// maxGridWorkers caps the fixed overflow shard count and SetWorkers' team,
// whose executors each own two spectral clones plus three vectors of
// transform scratch: many-core hosts need not trade memory for shards the
// row/column batches cannot use anyway.
const maxGridWorkers = 16

// ovfBinsPerShard sizes the fixed overflow-reduction shards. The shard
// count depends only on the grid size, so the partial-sum structure — and
// therefore the result, bit for bit — is identical for every worker count.
const ovfBinsPerShard = 4096

// solveScratch is one worker's private transform state: transform clones
// sharing the grid's precomputed FFT plans, plus gather/scatter vectors.
type solveScratch struct {
	sx, sy fft.Transform
	row    []float64 // length M, x-direction staging
	col    []float64 // length N, y-direction gather
	colOut []float64 // length N, y-direction result
}

// Grid is the electrostatic bin grid. Bins are indexed [j*M+i] with i the
// x (column) index and j the y (row) index.
type Grid struct {
	M, N   int // bin counts in x and y (powers of two)
	Region geom.Rect
	BinW   float64
	BinH   float64

	Rho []float64 // charge density: deposited area / bin area
	Ex  []float64 // field x-component (-∂ψ/∂x)
	Ey  []float64 // field y-component (-∂ψ/∂y)

	sx, sy fft.Transform

	// scratch buffers reused across Solve calls
	coef           []float64 // charge spectrum of the last executed Solve
	bufEx, bufEy   []float64
	psi            []float64 // potential, built on demand by Potential
	probeRho       []float64 // OverflowOf's raster target; Rho stays intact
	fixedRho       []float64 // baseline charge from fixed cells
	hasFixed       bool
	totalFixedArea float64

	// Deposit fingerprint: lastRects retains the operand of the most
	// recent DepositRects (so an identical re-deposit skips the raster)
	// and solvedRects the operand whose deposit the current Ex/Ey
	// were solved from (so an identical re-deposit lets Solve skip the
	// spectral work entirely). rhoFromRects / solvedFromRects record
	// whether those fingerprints are authoritative — any AddRect /
	// AddFixedRect / Reset in between voids them.
	lastRects       []geom.Rect
	solvedRects     []geom.Rect
	rhoFromRects    bool
	solvedFromRects bool
	fieldCurrent    bool // the latest deposit matched solvedRects
	solves          int  // spectral solves actually executed
	solveSkips      int  // Solve calls satisfied by the fingerprint
	rasterSkips     int  // DepositRects calls satisfied by the fingerprint

	// Per-phase walls of the spectral solve, cumulative across the grid's
	// lifetime (exposed through PhaseWalls into the place.phase.*
	// density gauges).
	wallAnalysis, wallFreq, wallSynth time.Duration

	// Precomputed frequency-response tables, flat [v*M+u], with the
	// 4/(M·N) analysis normalization and the u=0 / v=0 halving folded in:
	// ψ̂ = coef·psiTab, Êx = coef·exTab, Êy = coef·eyTab.
	psiTab, exTab, eyTab []float64

	// parallel execution state
	team       *par.Team
	scratch    []solveScratch
	ovfShards  int
	ovfPartial []float64
	ovfTarget  float64
	ovfRho     []float64   // charge the in-flight overflow reduction reads
	depRects   []geom.Rect // operands of the in-flight raster
	depDst     []float64
	synCoef    []float64 // operands of the in-flight synthesize
	synOut     []float64
	synSinX    bool
	synSinY    bool

	// Stage bodies are bound once here so the team can run them without
	// constructing a closure — and therefore without allocating — on every
	// Solve/Deposit call.
	stageFwdRows func(w, lo, hi int)
	stageFwdCols func(w, lo, hi int)
	stageFreq    func(w, lo, hi int)
	stageSynCols func(w, lo, hi int)
	stageSynRows func(w, lo, hi int)
	stageDeposit func(w, lo, hi int)
	stageOvf     func(s int)
}

// NewGrid creates an M×N grid over region. M and N must be powers of two,
// at least 2. The grid starts serial; call SetWorkers or SetTeam to enable
// data parallelism.
func NewGrid(region geom.Rect, m, n int) *Grid {
	if m < 2 || m&(m-1) != 0 || n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("density: grid %dx%d must be powers of two >= 2", m, n))
	}
	return newGrid(region, fft.NewRealPlan(m), fft.NewRealPlan(n))
}

// newGrid builds the grid over the given 1-D engines (sx of size M, sy of
// size N). Production passes real-input plans; the in-package tests pass
// the reference fft.Spectral to cross-check the solve.
func newGrid(region geom.Rect, sx, sy fft.Transform) *Grid {
	m, n := sx.Size(), sy.Size()
	g := &Grid{
		M: m, N: n, Region: region,
		BinW: region.W() / float64(m),
		BinH: region.H() / float64(n),
		sx:   sx,
		sy:   sy,
	}
	size := m * n
	g.Rho = make([]float64, size)
	g.Ex = make([]float64, size)
	g.Ey = make([]float64, size)
	g.coef = make([]float64, size)
	g.bufEx = make([]float64, size)
	g.bufEy = make([]float64, size)
	g.probeRho = make([]float64, size)
	g.fixedRho = make([]float64, size)

	g.psiTab = make([]float64, size)
	g.exTab = make([]float64, size)
	g.eyTab = make([]float64, size)
	norm := 4 / (float64(m) * float64(n))
	for v := 0; v < n; v++ {
		kv := g.sy.Freq(v) / g.BinH
		for u := 0; u < m; u++ {
			ku := g.sx.Freq(u) / g.BinW
			k2 := ku*ku + kv*kv
			if k2 <= 0 {
				continue // DC mode: neutralizing background, no force
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
			g.psiTab[idx] = a
			g.exTab[idx] = a * ku
			g.eyTab[idx] = a * kv
		}
	}

	g.team = par.NewTeam(1)
	g.scratch = []solveScratch{{
		sx:  g.sx,
		sy:  g.sy,
		row: make([]float64, m), col: make([]float64, n), colOut: make([]float64, n),
	}}
	g.ovfShards = size / ovfBinsPerShard
	if g.ovfShards < 1 {
		g.ovfShards = 1
	}
	if g.ovfShards > maxGridWorkers {
		g.ovfShards = maxGridWorkers
	}
	g.ovfPartial = make([]float64, g.ovfShards)
	g.bindStages()
	return g
}

// SetWorkers gives the grid a team of its own (0 or negative selects
// GOMAXPROCS, clamped to an internal bound; see par.NewTeam). Results never
// depend on the worker count.
func (g *Grid) SetWorkers(n int) {
	g.SetTeam(par.NewTeam(min(par.Workers(n), maxGridWorkers)))
}

// SetTeam dispatches the grid's stages on t — the placement engine shares
// one team among its kernels — and allocates the per-executor transform
// scratch up front so later Solve/DepositRects calls stay allocation-free.
func (g *Grid) SetTeam(t *par.Team) {
	g.team = t
	for len(g.scratch) < t.Size() {
		g.scratch = append(g.scratch, solveScratch{
			sx:  g.sx.CloneTransform(),
			sy:  g.sy.CloneTransform(),
			row: make([]float64, g.M), col: make([]float64, g.N), colOut: make([]float64, g.N),
		})
	}
}

// Team reports the team the grid dispatches on. Stage bodies receive the
// executor index w so they can use g.scratch[w].
func (g *Grid) Team() *par.Team { return g.team }

// bindStages constructs the worker bodies once, capturing g, so the hot
// path never builds a closure per call.
func (g *Grid) bindStages() {
	// Forward analysis along x: one independent DCT per bin row.
	g.stageFwdRows = func(w, lo, hi int) {
		s := &g.scratch[w]
		m := g.M
		for j := lo; j < hi; j++ {
			s.sx.CosCoeffs(g.Rho[j*m:(j+1)*m], g.coef[j*m:(j+1)*m])
		}
	}
	// Forward analysis along y: one independent DCT per coefficient column.
	g.stageFwdCols = func(w, lo, hi int) {
		s := &g.scratch[w]
		m, n := g.M, g.N
		for u := lo; u < hi; u++ {
			for j := 0; j < n; j++ {
				s.col[j] = g.coef[j*m+u]
			}
			s.sy.CosCoeffs(s.col, s.colOut)
			for v := 0; v < n; v++ {
				g.coef[v*m+u] = s.colOut[v]
			}
		}
	}
	// Frequency-domain solve: Êx = ρ̂·ku/k², Êy = ρ̂·kv/k², via the
	// precomputed response tables; disjoint per coefficient row. (ψ̂ = ρ̂/k²
	// is only formed by Potential.)
	g.stageFreq = func(w, lo, hi int) {
		m := g.M
		for v := lo; v < hi; v++ {
			for idx := v * m; idx < (v+1)*m; idx++ {
				c := g.coef[idx]
				g.bufEx[idx] = c * g.exTab[idx]
				g.bufEy[idx] = c * g.eyTab[idx]
			}
		}
	}
	// Synthesis along y (columns) into the output grid.
	g.stageSynCols = func(w, lo, hi int) {
		s := &g.scratch[w]
		m, n := g.M, g.N
		coef, out := g.synCoef, g.synOut
		for u := lo; u < hi; u++ {
			for v := 0; v < n; v++ {
				s.col[v] = coef[v*m+u]
			}
			if g.synSinY {
				s.sy.EvalSin(s.col, s.colOut)
			} else {
				s.sy.EvalCos(s.col, s.colOut)
			}
			for j := 0; j < n; j++ {
				out[j*m+u] = s.colOut[j]
			}
		}
	}
	// Synthesis along x (rows), in place row by row.
	g.stageSynRows = func(w, lo, hi int) {
		s := &g.scratch[w]
		m := g.M
		out := g.synOut
		for j := lo; j < hi; j++ {
			row := out[j*m : (j+1)*m]
			copy(s.row, row)
			if g.synSinX {
				s.sx.EvalSin(s.row, row)
			} else {
				s.sx.EvalCos(s.row, row)
			}
		}
	}
	// Banded rasterization: the executor owns bin rows [lo, hi), restores
	// the fixed baseline there, then scans the rectangle list in order and
	// deposits only the rows it owns. Per-bin addition order equals the
	// serial rectangle order for any band partition.
	g.stageDeposit = func(w, lo, hi int) {
		m := g.M
		dst := g.depDst
		copy(dst[lo*m:hi*m], g.fixedRho[lo*m:hi*m])
		invArea := 1 / (g.BinW * g.BinH)
		var f footprint
		for _, r := range g.depRects {
			if g.footprint(r, &f) {
				g.depositRows(dst, &f, max(f.j0, lo), min(f.j1, hi), invArea)
			}
		}
	}
	// Fixed-shard overflow partial: shard s always owns the same bin range.
	g.stageOvf = func(s int) {
		rho := g.ovfRho
		lo, hi := par.ShardRange(s, g.ovfShards, len(rho))
		target := g.ovfTarget
		over := 0.0
		for i := lo; i < hi; i++ {
			free := target - g.fixedRho[i]
			if free < 0 {
				free = 0
			}
			movable := rho[i] - g.fixedRho[i]
			if movable > free {
				over += movable - free
			}
		}
		g.ovfPartial[s] = over
	}
}

// Index returns the flat bin index of column i, row j.
func (g *Grid) Index(i, j int) int { return j*g.M + i }

// BinRect returns the geometric extent of bin (i, j).
func (g *Grid) BinRect(i, j int) geom.Rect {
	return geom.RectWH(
		g.Region.Lo.X+float64(i)*g.BinW,
		g.Region.Lo.Y+float64(j)*g.BinH,
		g.BinW, g.BinH)
}

// BinOf returns the bin coordinates containing point p, clamped to the grid.
func (g *Grid) BinOf(p geom.Point) (int, int) {
	i := int((p.X - g.Region.Lo.X) / g.BinW)
	j := int((p.Y - g.Region.Lo.Y) / g.BinH)
	return geom.ClampInt(i, 0, g.M-1), geom.ClampInt(j, 0, g.N-1)
}

// Reset clears movable charge, keeping the fixed baseline.
func (g *Grid) Reset() {
	copy(g.Rho, g.fixedRho)
	g.voidFingerprint()
}

// voidFingerprint discards the deposit fingerprints after any charge
// mutation that DepositRects does not describe, so neither the raster nor
// the solve skip can fire against stale state.
func (g *Grid) voidFingerprint() {
	g.rhoFromRects = false
	g.solvedFromRects = false
	g.fieldCurrent = false
}

// rectsEqual reports whether two rectangle lists are bitwise identical
// (exact float comparison — the fingerprint must never conflate rounding
// neighbours, only true re-deposits).
func rectsEqual(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// footCols is the width of a footprint's hoisted column-overlap buffer. It
// lives on the caller's stack; a rectangle spanning more bin columns reloads
// it chunk by chunk for every bin row instead of allocating.
const footCols = 16

// footprint is one rectangle resolved onto the bin grid: its edges clipped
// to the region and the half-open bin ranges they cover. ox caches the
// overlap lengths of the footCols bin columns starting at column ox0, so the
// row loops compute each column's overlap once per rectangle, not once per
// bin (rectangles wider than the buffer: once per row).
type footprint struct {
	xlo, xhi, ylo, yhi float64
	i0, i1, j0, j1     int
	ox0                int
	ox                 [footCols]float64
}

// footprint clips r to the region and resolves its bin ranges into f,
// reporting false when nothing of r lies inside.
func (g *Grid) footprint(r geom.Rect, f *footprint) bool {
	f.xlo, f.xhi = max(r.Lo.X, g.Region.Lo.X), min(r.Hi.X, g.Region.Hi.X)
	f.ylo, f.yhi = max(r.Lo.Y, g.Region.Lo.Y), min(r.Hi.Y, g.Region.Hi.Y)
	if f.xhi <= f.xlo || f.yhi <= f.ylo {
		return false
	}
	f.i0 = geom.ClampInt(int((f.xlo-g.Region.Lo.X)/g.BinW), 0, g.M-1)
	f.i1 = geom.ClampInt(int(math.Ceil((f.xhi-g.Region.Lo.X)/g.BinW)), f.i0+1, g.M)
	f.j0 = geom.ClampInt(int((f.ylo-g.Region.Lo.Y)/g.BinH), 0, g.N-1)
	f.j1 = geom.ClampInt(int(math.Ceil((f.yhi-g.Region.Lo.Y)/g.BinH)), f.j0+1, g.N)
	f.ox0 = -1
	return true
}

// overlap returns the length [lo, lo+size) shares with [clipLo, clipHi);
// zero or negative when they are disjoint. (The min/max builtins compile to
// a few branch-free instructions and agree with math.Min/Max bit for bit.)
func overlap(lo, size, clipLo, clipHi float64) float64 {
	return min(lo+size, clipHi) - max(lo, clipLo)
}

// cols returns the overlap lengths of the bin columns [c0, c0+footCols) the
// footprint covers, computing them unless the buffer already holds that
// chunk.
func (g *Grid) cols(f *footprint, c0 int) []float64 {
	n := min(footCols, f.i1-c0)
	if f.ox0 != c0 {
		f.ox0 = c0
		for k := 0; k < n; k++ {
			f.ox[k] = overlap(g.Region.Lo.X+float64(c0+k)*g.BinW, g.BinW, f.xlo, f.xhi)
		}
	}
	return f.ox[:n]
}

// depositRows adds overlap(rect, bin)·invArea into the bins of dst the
// footprint covers in rows [j0, j1).
func (g *Grid) depositRows(dst []float64, f *footprint, j0, j1 int, invArea float64) {
	for j := j0; j < j1; j++ {
		oy := overlap(g.Region.Lo.Y+float64(j)*g.BinH, g.BinH, f.ylo, f.yhi)
		if oy <= 0 {
			continue
		}
		for c0 := f.i0; c0 < f.i1; c0 += footCols {
			row := dst[j*g.M+c0:]
			for k, ox := range g.cols(f, c0) {
				if ox > 0 {
					row[k] += ox * oy * invArea
				}
			}
		}
	}
}

// AddRect deposits scale × overlap(rect, bin) area into each bin the
// rectangle overlaps, as charge density (area / bin area).
func (g *Grid) AddRect(r geom.Rect, scale float64) {
	g.addRectTo(g.Rho, r, scale)
	g.voidFingerprint()
}

// AddFixedRect deposits the rectangle into the fixed baseline so it
// survives Reset. Call once per fixed cell during setup.
func (g *Grid) AddFixedRect(r geom.Rect, scale float64) {
	g.addRectTo(g.fixedRho, r, scale)
	g.hasFixed = true
	g.totalFixedArea += r.Intersect(g.Region).Area() * scale
	// A new baseline changes what any rect list deposits to, so both the
	// raster and the solve fingerprints are stale.
	g.voidFingerprint()
}

func (g *Grid) addRectTo(dst []float64, r geom.Rect, scale float64) {
	var f footprint
	if g.footprint(r, &f) {
		g.depositRows(dst, &f, f.j0, f.j1, scale/(g.BinW*g.BinH))
	}
}

// raster writes fixedRho + Σ rects into dst, sharded by output bin rows.
func (g *Grid) raster(dst []float64, rects []geom.Rect) {
	g.depDst, g.depRects = dst, rects
	g.team.Shards(g.N, g.stageDeposit)
	g.depDst, g.depRects = nil, nil
}

// DepositRects replaces the movable charge with the given unit-scale
// rectangles in one pass: Rho = fixedRho + Σ rects. It is the parallel
// equivalent of Reset followed by AddRect per rectangle, sharded by output
// bin rows, and produces bit-identical charge for every worker count. The
// rects slice is only read during the call; callers may reuse it.
//
// The call fingerprints its operand: depositing a list bitwise identical to
// the previous one skips the raster (Rho is already exact, since the deposit
// fully rewrites it; see RasterSkips), and depositing the list the current
// field was solved from arms the next Solve to return without any spectral
// work.
func (g *Grid) DepositRects(rects []geom.Rect) {
	if g.rhoFromRects && rectsEqual(rects, g.lastRects) {
		g.rasterSkips++
	} else {
		g.raster(g.Rho, rects)
		g.lastRects = append(g.lastRects[:0], rects...)
		g.rhoFromRects = true
	}
	g.fieldCurrent = g.solvedFromRects && rectsEqual(rects, g.solvedRects)
}

// Solve computes the field from the current charge. The DC component of the
// charge is removed first (the u=v=0 mode has no force and corresponds to
// the neutralizing background of the electrostatic analogy).
// The row/column transform batches run across the team with per-executor
// spectral scratch; every batch writes a disjoint output range,
// so the solution is bit-identical for any worker count.
// When the most recent DepositRects matched the list the current field was
// solved from, the charge — and therefore the solution — is unchanged, and
// Solve returns immediately (see SolveSkips). Mutating the charge by any
// other means (AddRect, Reset, direct Rho writes) always forces a full
// solve on the next call.
func (g *Grid) Solve() {
	if g.fieldCurrent {
		g.solveSkips++
		return
	}

	// Forward analysis: cosine coefficients along x for each row, then
	// along y for each column, then the per-mode frequency response.
	t := time.Now()
	g.team.Shards(g.N, g.stageFwdRows)
	g.team.Shards(g.M, g.stageFwdCols)
	t = g.lap(t, &g.wallAnalysis)
	g.team.Shards(g.N, g.stageFreq)
	t = g.lap(t, &g.wallFreq)

	// Synthesis. Ex = -∂ψ/∂x uses sin in x (the derivative of cos(ku·x) is
	// -ku·sin(ku·x), and E = -∇ψ cancels the sign); Ey symmetric. The
	// potential itself is not synthesized here: nothing on the placement
	// path reads it (see Potential).
	g.synthesize(g.bufEx, g.Ex, true, false)
	g.synthesize(g.bufEy, g.Ey, false, true)
	g.lap(t, &g.wallSynth)

	g.solves++
	g.solvedFromRects = g.rhoFromRects
	if g.solvedFromRects {
		g.solvedRects = append(g.solvedRects[:0], g.lastRects...)
	}
}

// lap accumulates the time since t into *wall and returns the new mark.
func (g *Grid) lap(t time.Time, wall *time.Duration) time.Time {
	now := time.Now()
	*wall += now.Sub(t)
	return now
}

// synthesize evaluates the 2-D series with sine evaluation in x and/or y.
// coef and out may be the same slice: the column pass gathers a whole
// column before writing it back.
func (g *Grid) synthesize(coef, out []float64, sinX, sinY bool) {
	g.synCoef, g.synOut, g.synSinX, g.synSinY = coef, out, sinX, sinY
	g.team.Shards(g.M, g.stageSynCols)
	g.team.Shards(g.N, g.stageSynRows)
	g.synCoef, g.synOut = nil, nil
}

// Potential synthesizes the electric potential ψ (cos·cos) of the last
// executed Solve from its retained charge spectrum. It is a diagnostic: the
// placement path needs only the field, so ψ costs nothing until asked for,
// and every call recomputes it. The returned slice is reused by the next
// call.
func (g *Grid) Potential() []float64 {
	if g.psi == nil {
		g.psi = make([]float64, len(g.coef))
	}
	for i, c := range g.coef {
		g.psi[i] = c * g.psiTab[i]
	}
	g.synthesize(g.psi, g.psi, false, false)
	return g.psi
}

// Energy returns the total potential energy Σ ρ·ψ·binArea (Eq. 3 up to the
// constant factor absorbed by λ).
func (g *Grid) Energy() float64 {
	e := 0.0
	for i, psi := range g.Potential() {
		e += g.Rho[i] * psi
	}
	return e * (g.BinW * g.BinH)
}

// ForceOnRect returns the overlap-weighted electric force on a rectangle of
// charge (the negative gradient of the energy with respect to the
// rectangle's position). The returned vector is Σ overlapArea·E over the
// bins the rectangle covers. It only reads the solved field, so any number
// of goroutines may call it concurrently (the placement engine's force
// sweep does).
func (g *Grid) ForceOnRect(r geom.Rect) (fx, fy float64) {
	var f footprint
	if !g.footprint(r, &f) {
		// Pull cells that escaped the region back toward it.
		c := g.Region.ClampPoint(r.Center())
		i, j := g.BinOf(c)
		idx := g.Index(i, j)
		return g.Ex[idx] * r.Area(), g.Ey[idx] * r.Area()
	}
	for j := f.j0; j < f.j1; j++ {
		oy := overlap(g.Region.Lo.Y+float64(j)*g.BinH, g.BinH, f.ylo, f.yhi)
		if oy <= 0 {
			continue
		}
		for c0 := f.i0; c0 < f.i1; c0 += footCols {
			ex, ey := g.Ex[j*g.M+c0:], g.Ey[j*g.M+c0:]
			for k, ox := range g.cols(&f, c0) {
				if ox > 0 {
					a := ox * oy
					fx += a * ex[k]
					fy += a * ey[k]
				}
			}
		}
	}
	return fx, fy
}

// Overflow returns the density overflow ratio of the current charge: the
// summed movable charge area exceeding target density in each bin, divided
// by the total movable area. This is the τ trigger metric of Sec. III-B3 in
// normalized form. The reduction runs over a fixed shard count derived from
// the grid size, so the floating-point result is identical for every worker
// count.
func (g *Grid) Overflow(target, totalMovableArea float64) float64 {
	return g.overflowIn(g.Rho, target, totalMovableArea)
}

// OverflowOf returns the overflow ratio the rectangles would have if
// deposited, without depositing them: they are rasterized into a side
// buffer, so Rho, the field and both fingerprints survive the probe. The
// result equals DepositRects(rects) followed by Overflow, bit for bit.
func (g *Grid) OverflowOf(rects []geom.Rect, target, totalMovableArea float64) float64 {
	g.raster(g.probeRho, rects)
	return g.overflowIn(g.probeRho, target, totalMovableArea)
}

func (g *Grid) overflowIn(rho []float64, target, totalMovableArea float64) float64 {
	if totalMovableArea <= 0 {
		return 0
	}
	g.ovfTarget, g.ovfRho = target, rho
	g.team.N(g.ovfShards, g.stageOvf)
	g.ovfRho = nil
	over := 0.0
	for _, p := range g.ovfPartial {
		over += p
	}
	return over * g.BinW * g.BinH / totalMovableArea
}

// Solves reports how many Solve calls actually ran the spectral pipeline.
func (g *Grid) Solves() int { return g.solves }

// SolveSkips reports how many Solve calls returned immediately because the
// deposited charge matched the list the current field was solved from.
func (g *Grid) SolveSkips() int { return g.solveSkips }

// RasterSkips reports how many DepositRects calls left Rho untouched because
// the list was bitwise identical to the one already deposited.
func (g *Grid) RasterSkips() int { return g.rasterSkips }

// PhaseWalls returns the cumulative wall time of the spectral solve split
// by phase: forward analysis (row+column DCTs), the frequency-domain
// response, and the two field synthesis passes.
func (g *Grid) PhaseWalls() (analysis, freq, synth time.Duration) {
	return g.wallAnalysis, g.wallFreq, g.wallSynth
}
