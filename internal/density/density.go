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
//   - DepositRects first resolves every rectangle's bin ranges once,
//     sharded by rectangle, then shards the OUTPUT (bands of bin rows):
//     each band owner scans the rectangles in order and accumulates only
//     its own rows, so every bin receives its contributions in the same
//     rectangle order a serial sweep would use — identical bits for any
//     band count.
//     This replaces the per-worker-accumulator-plus-merge design: it needs
//     no extra grids, no zeroing, no merge pass, and is worker-count
//     independent rather than merely fixed-worker-count reproducible. The
//     force readout of the list just deposited (DepositedForce) reads the
//     same footprints.
//   - Solve runs three stages of independent 1-D transforms — row
//     analysis, one fused column pass per panel of adjacent columns, row
//     synthesis — and every shard writes a disjoint output range through
//     per-worker fft.Transform scratch cloned from one precomputed plan, so
//     scheduling cannot change any value.
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

	"puffer/internal/fft"
	"puffer/internal/geom"
	"puffer/internal/par"
)

// maxGridWorkers caps the fixed overflow shard count and SetWorkers' team,
// whose executors each own two spectral clones plus a row and three panels
// of transform scratch: many-core hosts need not trade memory for shards
// the row/panel batches cannot use anyway.
const maxGridWorkers = 16

// panelCols is the width of the column stage's panel: 8 float64s are one
// 64-byte cache line, so gathering a panel reads one line per bin row where
// a single-column gather reads a line for every one of its values.
// panelPad spaces the panel's columns in scratch one cache line further
// apart than their length N: at a stride of exactly N (a power of two) they
// would all map to the same few L1 sets, and the row-by-row gather and
// scatter would evict one another.
const (
	panelCols = 8
	panelPad  = 8
)

// ovfBinsPerShard sizes the fixed overflow-reduction shards. The shard
// count depends only on the grid size, so the partial-sum structure — and
// therefore the result, bit for bit — is identical for every worker count.
const ovfBinsPerShard = 4096

// solveScratch is one worker's private transform state: transform clones
// sharing the grid's precomputed FFT plans, a row for the in-place x
// synthesis, and three panels of panelCols columns, column k starting at
// k·(N+panelPad), so each 1-D transform reads a contiguous vector.
type solveScratch struct {
	sx, sy     fft.Transform
	row        []float64 // length M
	pa, pb, pc []float64 // length panelCols·(N+panelPad) each
}

func newSolveScratch(sx, sy fft.Transform) solveScratch {
	m, ps := sx.Size(), sy.Size()+panelPad
	return solveScratch{
		sx: sx, sy: sy,
		row: make([]float64, m),
		pa:  make([]float64, panelCols*ps),
		pb:  make([]float64, panelCols*ps),
		pc:  make([]float64, panelCols*ps),
	}
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
	probeRho       []float64 // OverflowOf's raster target; Rho stays intact
	fixedRho       []float64 // baseline charge from fixed cells
	hasFixed       bool
	totalFixedArea float64

	// Deposit fingerprint: lastRects retains the operand of the most
	// recent DepositRects (so an identical re-deposit skips the raster)
	// and the solved list the operand whose deposit the current Ex/Ey
	// were solved from (so an identical re-deposit lets Solve skip the
	// spectral work entirely): lastRects itself while solvedIsLast, else
	// solvedRects, the buffer a raster swaps it into instead of copying.
	// rhoFromRects / solvedFromRects record whether those fingerprints are
	// authoritative — any AddRect / AddFixedRect / Reset in between voids
	// them.
	lastRects       []geom.Rect
	solvedRects     []geom.Rect
	solvedIsLast    bool
	rhoFromRects    bool
	solvedFromRects bool
	fieldCurrent    bool // the latest deposit matched the solved list
	solves          int  // spectral solves actually executed
	solveSkips      int  // Solve calls satisfied by the fingerprint
	rasterSkips     int  // DepositRects calls satisfied by the fingerprint

	// Precomputed frequency response: Êx = ρ̂·(a·ku), Êy = ρ̂·(a·kv), where
	// a = c/k² folds the 4/(M·N) analysis normalization and the u=0 / v=0
	// halving into c. invK2 holds a for every mode in the order the column
	// stage reads it — panel by panel, then bin row by bin row, then column
	// — so that stage streams it front to back; kx and ky hold ku and kv.
	invK2, kx, ky []float64

	// parallel execution state
	team       *par.Team
	scratch    []solveScratch
	ovfShards  int
	ovfPartial []float64
	ovfTarget  float64
	ovfRho     []float64   // charge the in-flight overflow reduction reads
	depRects   []geom.Rect // operands of the in-flight raster
	depDst     []float64
	depFoot    *footprints
	depCopy    []geom.Rect // where the raster copies its operand, if anywhere

	// Resolved footprints of the last DepositRects list (read by
	// DepositedForce) and of the last OverflowOf probe.
	foot, probeFoot footprints

	// Stage bodies are bound once here so the team can run them without
	// constructing a closure — and therefore without allocating — on every
	// Solve/Deposit call.
	stageAnalyzeRows func(w, lo, hi int)
	stageColumns     func(w, lo, hi int)
	stageSynthRows   func(w, lo, hi int)
	stageFoot        func(w, lo, hi int)
	stageDeposit     func(w, lo, hi int)
	stageOvf         func(s int)
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
	g.probeRho = make([]float64, size)
	g.fixedRho = make([]float64, size)

	g.invK2 = make([]float64, size)
	g.kx, g.ky = make([]float64, m), make([]float64, n)
	for u := range g.kx {
		g.kx[u] = g.sx.Freq(u) / g.BinW
	}
	for v := range g.ky {
		g.ky[v] = g.sy.Freq(v) / g.BinH
	}
	norm := 4 / (float64(m) * float64(n))
	for v, kv := range g.ky {
		for u, ku := range g.kx {
			k2 := float64(ku*ku) + float64(kv*kv)
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
			u0 := u - u%panelCols
			g.invK2[u0*n+v*min(panelCols, m-u0)+u-u0] = c / k2
		}
	}

	g.team = par.NewTeam(1)
	g.scratch = []solveScratch{newSolveScratch(g.sx, g.sy)}
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
		g.scratch = append(g.scratch, newSolveScratch(g.sx.CloneTransform(), g.sy.CloneTransform()))
	}
}

// Team reports the team the grid dispatches on. Stage bodies receive the
// executor index w so they can use g.scratch[w].
func (g *Grid) Team() *par.Team { return g.team }

// bindStages constructs the worker bodies once, capturing g, so the hot
// path never builds a closure per call.
func (g *Grid) bindStages() {
	// Rows: the forward DCT of each bin row of the charge.
	g.stageAnalyzeRows = func(w, lo, hi int) {
		s := &g.scratch[w]
		m := g.M
		for j := lo; j < hi; j++ {
			s.sx.CosCoeffs(g.Rho[j*m:(j+1)*m], g.coef[j*m:(j+1)*m])
		}
	}
	// Columns, one panel of up to panelCols adjacent columns at a time:
	// gather the panel row by row, take each column's DCT (the charge
	// spectrum ρ̂, written back to coef), form both field spectra from it
	// while the panel is in scratch, and synthesize them along
	// y — Ex with cosines, Ey with sines (the derivative of cos(kv·y) is
	// -kv·sin(kv·y), and E = -∇ψ cancels the sign) — scattering the results
	// into Ex/Ey row by row.
	g.stageColumns = func(w, lo, hi int) {
		s := &g.scratch[w]
		m, n := g.M, g.N
		ps := n + panelPad
		for p := lo; p < hi; p++ {
			u0 := p * panelCols
			pw := min(panelCols, m-u0)
			for j := 0; j < n; j++ {
				for k, c := range g.coef[j*m+u0 : j*m+u0+pw] {
					s.pa[k*ps+j] = c
				}
			}
			for k := 0; k < pw; k++ {
				s.sy.CosCoeffs(s.pa[k*ps:k*ps+n], s.pb[k*ps:k*ps+n])
			}
			tab, kx := g.invK2[u0*n:(u0+pw)*n], g.kx[u0:u0+pw]
			for v, ky := range g.ky {
				spec := g.coef[v*m+u0 : v*m+u0+pw]
				for k, a := range tab[v*pw : (v+1)*pw] {
					c := s.pb[k*ps+v]
					spec[k] = c
					s.pa[k*ps+v] = c * (a * kx[k])
					s.pb[k*ps+v] = c * (a * ky)
				}
			}
			for k := 0; k < pw; k++ {
				s.sy.EvalCos(s.pa[k*ps:k*ps+n], s.pc[k*ps:k*ps+n])
				s.sy.EvalSin(s.pb[k*ps:k*ps+n], s.pa[k*ps:k*ps+n])
			}
			for j := 0; j < n; j++ {
				at := j*m + u0
				ex, ey := g.Ex[at:at+pw], g.Ey[at:at+pw]
				for k := range ex {
					ex[k] = s.pc[k*ps+j]
					ey[k] = s.pa[k*ps+j]
				}
			}
		}
	}
	// Rows again, in place: Ex = -∂ψ/∂x takes sines in x, Ey cosines.
	g.stageSynthRows = func(w, lo, hi int) {
		s := &g.scratch[w]
		m := g.M
		for j := lo; j < hi; j++ {
			ex := g.Ex[j*m : (j+1)*m]
			copy(s.row, ex)
			s.sx.EvalSin(s.row, ex)
			ey := g.Ey[j*m : (j+1)*m]
			copy(s.row, ey)
			s.sx.EvalCos(s.row, ey)
		}
	}
	// Footprints, sharded by rectangle: each rectangle's bin ranges,
	// written to its own slot (and the rectangle itself into the
	// fingerprint, when the raster keeps one).
	g.stageFoot = func(w, lo, hi int) {
		fp := g.depFoot
		var f footprint
		for k, r := range g.depRects[lo:hi] {
			fp.set(lo+k, g.footprint(r, &f), &f)
		}
		if g.depCopy != nil {
			copy(g.depCopy[lo:hi], g.depRects[lo:hi])
		}
	}
	// Banded rasterization: the executor owns bin rows [lo, hi), restores
	// the fixed baseline there, then scans the rectangles' row ranges in
	// order and deposits only the rows it owns. Per-bin addition order
	// equals the serial rectangle order for any band partition. The row
	// range is read first, so a rectangle outside the band costs no more.
	g.stageDeposit = func(w, lo, hi int) {
		m := g.M
		dst := g.depDst
		copy(dst[lo*m:hi*m], g.fixedRho[lo*m:hi*m])
		invArea := 1 / (g.BinW * g.BinH)
		fp := g.depFoot
		var f footprint
		for k, rs := range fp.rows {
			if int(rs.lo) < hi && int(rs.hi) > lo {
				g.load(fp, k, g.depRects[k], &f)
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
	return geom.RectWH(g.binX(i), g.binY(j), g.BinW, g.BinH)
}

// binX and binY return the low edge of bin column i and bin row j. The
// conversion keeps the product rounded on its own, so no architecture fuses
// it into the add.
func (g *Grid) binX(i int) float64 { return g.Region.Lo.X + float64(float64(i)*g.BinW) }
func (g *Grid) binY(j int) float64 { return g.Region.Lo.Y + float64(float64(j)*g.BinH) }

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
	g.solvedIsLast = false
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

// footprints holds a rectangle list's resolved bin ranges, one slot per
// rectangle: the row range, which every band reads, apart from the column
// range, which only the bands the rectangle reaches read. A rectangle with
// nothing inside the region has the empty row range [0, 0). The clipped
// edges are not kept: two min/max per axis recompute them, where the bin
// indices cost two divisions and a math.Ceil.
type footprints struct {
	rows []span
	cols []span
}

type span struct{ lo, hi int32 }

// resize sizes the buffers for n rectangles, reusing their backing arrays.
func (fp *footprints) resize(n int) {
	if cap(fp.rows) < n {
		fp.rows, fp.cols = make([]span, n), make([]span, n)
	}
	fp.rows, fp.cols = fp.rows[:n], fp.cols[:n]
}

// set stores slot k: f's bin ranges when inside, otherwise the empty row
// range.
func (fp *footprints) set(k int, inside bool, f *footprint) {
	if !inside {
		fp.rows[k] = span{}
		return
	}
	fp.rows[k] = span{int32(f.j0), int32(f.j1)}
	fp.cols[k] = span{int32(f.i0), int32(f.i1)}
}

// load resolves slot k of fp, whose rectangle r lies inside the region,
// into f — the edges clipped as clipRows and clipCols clip them — with its
// column buffer empty.
func (g *Grid) load(fp *footprints, k int, r geom.Rect, f *footprint) {
	f.ylo, f.yhi = max(r.Lo.Y, g.Region.Lo.Y), min(r.Hi.Y, g.Region.Hi.Y)
	f.xlo, f.xhi = max(r.Lo.X, g.Region.Lo.X), min(r.Hi.X, g.Region.Hi.X)
	f.j0, f.j1 = int(fp.rows[k].lo), int(fp.rows[k].hi)
	f.i0, f.i1 = int(fp.cols[k].lo), int(fp.cols[k].hi)
	f.ox0 = -1
}

// footprint clips r to the region and resolves its bin ranges into f,
// reporting false when nothing of r lies inside.
func (g *Grid) footprint(r geom.Rect, f *footprint) bool {
	return g.clipRows(r, f) && g.clipCols(r, f)
}

// clipRows resolves the y half of r's footprint (ylo, yhi, j0, j1),
// reporting false when r lies wholly above or below the region.
func (g *Grid) clipRows(r geom.Rect, f *footprint) bool {
	f.ylo, f.yhi = max(r.Lo.Y, g.Region.Lo.Y), min(r.Hi.Y, g.Region.Hi.Y)
	if f.yhi <= f.ylo {
		return false
	}
	f.j0 = geom.ClampInt(int((f.ylo-g.Region.Lo.Y)/g.BinH), 0, g.N-1)
	f.j1 = geom.ClampInt(int(math.Ceil((f.yhi-g.Region.Lo.Y)/g.BinH)), f.j0+1, g.N)
	return true
}

// clipCols resolves the x half of r's footprint (xlo, xhi, i0, i1) and
// empties its column buffer, reporting false when r lies wholly left or
// right of the region.
func (g *Grid) clipCols(r geom.Rect, f *footprint) bool {
	f.xlo, f.xhi = max(r.Lo.X, g.Region.Lo.X), min(r.Hi.X, g.Region.Hi.X)
	if f.xhi <= f.xlo {
		return false
	}
	f.i0 = geom.ClampInt(int((f.xlo-g.Region.Lo.X)/g.BinW), 0, g.M-1)
	f.i1 = geom.ClampInt(int(math.Ceil((f.xhi-g.Region.Lo.X)/g.BinW)), f.i0+1, g.M)
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
			f.ox[k] = overlap(g.binX(c0+k), g.BinW, f.xlo, f.xhi)
		}
	}
	return f.ox[:n]
}

// depositRows adds overlap(rect, bin)·invArea into the bins of dst the
// footprint covers in rows [j0, j1).
func (g *Grid) depositRows(dst []float64, f *footprint, j0, j1 int, invArea float64) {
	for j := j0; j < j1; j++ {
		oy := overlap(g.binY(j), g.BinH, f.ylo, f.yhi)
		if oy <= 0 {
			continue
		}
		for c0 := f.i0; c0 < f.i1; c0 += footCols {
			row := dst[j*g.M+c0:]
			for k, ox := range g.cols(f, c0) {
				if ox > 0 {
					row[k] += float64(ox * oy * invArea)
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
	g.totalFixedArea += float64(r.Intersect(g.Region).Area() * scale)
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

// raster resolves the rects' footprints into fp — and, when keep is
// non-nil, copies the rects into it — sharded by rectangle, then writes
// fixedRho + Σ rects into dst, sharded by output bin rows.
func (g *Grid) raster(dst []float64, rects []geom.Rect, fp *footprints, keep []geom.Rect) {
	fp.resize(len(rects))
	g.depDst, g.depRects, g.depFoot, g.depCopy = dst, rects, fp, keep
	g.team.Shards(len(rects), g.stageFoot)
	g.team.Shards(g.N, g.stageDeposit)
	g.depDst, g.depRects, g.depFoot, g.depCopy = nil, nil, nil, nil
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
		g.fieldCurrent = g.solvedFromRects && (g.solvedIsLast || rectsEqual(rects, g.solvedRects))
		return
	}
	if g.solvedIsLast { // the solved list moves to the spare buffer
		g.lastRects, g.solvedRects = g.solvedRects, g.lastRects
		g.solvedIsLast = false
	}
	if cap(g.lastRects) < len(rects) {
		g.lastRects = make([]geom.Rect, len(rects))
	}
	g.lastRects = g.lastRects[:len(rects)]
	g.raster(g.Rho, rects, &g.foot, g.lastRects)
	g.rhoFromRects = true
	g.fieldCurrent = g.solvedFromRects && rectsEqual(rects, g.solvedRects)
}

// Solve computes the field from the current charge. The DC component of the
// charge is removed first (the u=v=0 mode has no force and corresponds to
// the neutralizing background of the electrostatic analogy).
// Three stages run across the team with per-executor spectral scratch: the
// forward DCT of every row; one fused pass per panel of adjacent columns
// that takes the column DCTs, forms both field spectra from the one shared
// charge spectrum and synthesizes them along y; and the x synthesis of
// every row of Ex and Ey. Every shard writes a disjoint output range, so
// the solution is bit-identical for any worker count. The potential itself
// is not synthesized: nothing on the placement path reads it.
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
	g.team.Shards(g.N, g.stageAnalyzeRows)
	g.team.Shards((g.M+panelCols-1)/panelCols, g.stageColumns)
	g.team.Shards(g.N, g.stageSynthRows)

	g.solves++
	g.solvedFromRects = g.rhoFromRects
	g.solvedIsLast = g.rhoFromRects
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
		return g.escapedForce(r)
	}
	return g.forceIn(&f)
}

// DepositedForce returns ForceOnRect(rects[k]) for the list of the last
// DepositRects call, bit for bit, reading the footprint that deposit
// resolved instead of resolving it again. Like ForceOnRect it only reads,
// so any number of goroutines may call it concurrently.
func (g *Grid) DepositedForce(k int) (fx, fy float64) {
	r := g.lastRects[k]
	if g.foot.rows[k].hi == 0 {
		return g.escapedForce(r)
	}
	var f footprint
	g.load(&g.foot, k, r, &f)
	return g.forceIn(&f)
}

// escapedForce pulls a rectangle with nothing inside the region back
// toward it: the field of the bin nearest its center, times its area.
func (g *Grid) escapedForce(r geom.Rect) (fx, fy float64) {
	c := g.Region.ClampPoint(r.Center())
	i, j := g.BinOf(c)
	idx := g.Index(i, j)
	return g.Ex[idx] * r.Area(), g.Ey[idx] * r.Area()
}

// forceIn is the overlap-weighted field sum over a resolved footprint.
func (g *Grid) forceIn(f *footprint) (fx, fy float64) {
	for j := f.j0; j < f.j1; j++ {
		oy := overlap(g.binY(j), g.BinH, f.ylo, f.yhi)
		if oy <= 0 {
			continue
		}
		for c0 := f.i0; c0 < f.i1; c0 += footCols {
			ex, ey := g.Ex[j*g.M+c0:], g.Ey[j*g.M+c0:]
			for k, ox := range g.cols(f, c0) {
				if ox > 0 {
					a := ox * oy
					fx += float64(a * ex[k])
					fy += float64(a * ey[k])
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
	g.raster(g.probeRho, rects, &g.probeFoot, nil)
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
