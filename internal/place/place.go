// Package place implements the electrostatic global placement engine
// (paper Sec. II-B): the unconstrained objective f = W + λ·D of Eq. 1,
// with WA wirelength (Eq. 2), spectral electrostatic density (Eqs. 3–6),
// Nesterov iterations, filler cells occupying target whitespace, λ and γ
// scheduling, and a pluggable routability-optimizer hook that is invoked
// every iteration so cell padding can steer the spreading (paper Fig. 2).
package place

import (
	"context"
	"math"
	"math/rand"
	"time"

	"puffer/internal/density"
	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/nesterov"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/par"
	"puffer/internal/wirelength"
)

// MinGridDim is the floor of the density-grid size rule (see NewChecked).
// Below it the spectral model has too few modes to produce a useful
// spreading force.
const MinGridDim = 16

// Config controls the global placement engine.
type Config struct {
	// MaxIters bounds the Nesterov iterations.
	MaxIters int
	// StopOverflow is the density overflow below which placement stops.
	StopOverflow float64
	// MinIters prevents premature convergence checks.
	MinIters int
	// PlateauIters stops placement when the density overflow has not
	// improved for this many iterations since the best iterate, which a
	// padding round resets (the target StopOverflow may be unreachable
	// once padding has grown the effective cell area).
	PlateauIters int
	// LambdaMu is the maximum per-iteration density-penalty multiplier.
	// The actual multiplier adapts to the HPWL trajectory (ePlace-style):
	// λ grows at LambdaMu while wirelength is stable and backs off when
	// the density force starts tearing nets apart.
	LambdaMu float64
	// WLModel is inert (WA, Eq. 2, is the only model). It survives only
	// because the frozen benchmark/kernels.go reads it — delete with
	// ROADMAP item 9.
	WLModel wirelength.Kind
	// WarmStart seeds the initial placement from the design's current
	// movable-cell centers instead of center-plus-jitter — the ECO path:
	// a previous placement is already a near-solution for a small delta,
	// so the engine only has to absorb the change. Fillers are still
	// seeded uniformly from Seed (they carry no state worth keeping).
	WarmStart bool
	// Seed drives the deterministic initial placement jitter.
	Seed int64
	// Workers caps the engine's data parallelism across the per-iteration
	// hot path (wirelength gradient, density rasterization, spectral
	// solve, force sweep, optimizer vector work), which runs on one
	// par.Team of min(Workers, GOMAXPROCS) executors. Zero or negative
	// selects GOMAXPROCS. Every phase is bit-deterministic regardless of
	// the worker count — see DESIGN.md §3e — so changing Workers never
	// changes the placement.
	Workers int
	// Obs, when non-nil, receives the engine's telemetry: per-iteration
	// HPWL / overflow / λ / γ / step-length series. Nil disables
	// recording at near-zero cost (see internal/obs).
	Obs *obs.Recorder `json:"-"`
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any) `json:"-"`
}

// DefaultTraceCap is the Result.Trace retention bound: the engine keeps the
// most recent DefaultTraceCap iterations in a ring buffer, so unbounded
// runs cannot grow the IterStats history without limit, and
// Result.TraceDropped reports how many oldest iterations were evicted. It
// exceeds DefaultConfig().MaxIters, so default-configured runs always
// retain their full trajectory.
const DefaultTraceCap = 4096

// targetDensity is the placement target density: the fillers bring the
// movable area to this share of the free area, and overflow is measured
// against it.
const targetDensity = 0.9

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		MaxIters:     600,
		StopOverflow: 0.07,
		MinIters:     40,
		PlateauIters: 120,
		LambdaMu:     1.05,
	}
}

// Hook is the routability-optimizer callback invoked once per iteration
// with the current density overflow, except on the iteration GP stops at.
// It returns true when it changed anything the objective reads — cell
// padding or net weights — so the engine refreshes charge areas, retires
// fillers to compensate for the added padding area, restarts the Nesterov
// momentum and voids the carried wirelength gradient, which it otherwise
// keeps across iterations at an unchanged point: a hook that re-weights
// nets and returns false leaves a gradient of the old weights in force.
// padding.Optimizer re-weights nets only inside a round, and every round
// returns true. λ carries over a round.
type Hook interface {
	OnIteration(iter int, overflow float64) bool
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(iter int, overflow float64) bool

// OnIteration implements Hook.
func (f HookFunc) OnIteration(iter int, overflow float64) bool { return f(iter, overflow) }

// IterStats records one engine iteration for tracing and experiments.
type IterStats struct {
	Iter     int
	HPWL     float64
	Overflow float64
	Lambda   float64
	Gamma    float64
	Padded   bool
}

// Result summarizes a finished global placement.
type Result struct {
	HPWL     float64
	Overflow float64
	Iters    int
	// Stop says why the run stopped: StopTarget, StopPlateau, StopLambda,
	// StopMaxIters or StopCanceled.
	Stop string
	// BestIter is the iteration of the best-overflow iterate since the last
	// padding round (since the start before the first), or that round's
	// iteration when no iterate followed it.
	BestIter int
	// Restored reports that the placement is BestIter's iterate, written
	// back because the final one's overflow was more than 1 % worse.
	Restored bool
	// Trace holds the retained per-iteration statistics in chronological
	// order; when the run outlived DefaultTraceCap, only the most recent
	// iterations survive and TraceDropped counts the evicted ones.
	Trace        []IterStats
	TraceDropped int
}

// traceRing retains the most recent IterStats up to a fixed capacity,
// overwriting the oldest entries once full.
type traceRing struct {
	buf     []IterStats
	max     int
	next    int // overwrite cursor, valid once len(buf) == max
	dropped int
}

func newTraceRing(cap int) *traceRing { return &traceRing{max: cap} }

func (r *traceRing) add(it IterStats) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, it)
		return
	}
	r.buf[r.next] = it
	r.next = (r.next + 1) % r.max
	r.dropped++
}

// items returns the retained entries oldest-first.
func (r *traceRing) items() []IterStats {
	if r.next == 0 {
		return r.buf
	}
	out := make([]IterStats, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// movGeom is movable k's cell as the position stage and the force sweep
// read it: the halves SetCenter subtracts from a center, the height and
// pin count, and the padding half and padded width PaddedRect uses —
// SetCenter's and PaddedRect's operands, so their results have the same
// bits. Only a hook pads cells, so the padding entries are reloaded after
// every hook call.
type movGeom struct {
	hw, hh, h, pins float64
	padHalf, pw     float64
}

// Placer is the global placement engine for one design.
type Placer struct {
	D   *netlist.Design
	Cfg Config

	movable []int // movable cell IDs
	g       *density.Grid
	wl      *wirelength.Model

	// What the hot stages read of each movable cell, indexed like movable,
	// so they stream compact arrays instead of the design's cells: geo for
	// the position stage and the force sweep, box for the projection.
	geo []movGeom
	box []geom.Rect

	// fillers
	nFill      int
	activeFill int
	fillerW    float64
	fillerH    float64

	// optimization state: vector layout is
	// [x of movables | x of fillers | y of movables | y of fillers].
	nVar           int
	gradWx, gradWy []float64 // per-cell wirelength gradients (all cells)
	ctl            control   // λ, stop rules, best iterate
	gamma          float64
	overflow       float64
	binBase        float64
	movArea        float64 // movable cell area (constant during a run)
	padArea        float64 // padding area as of the last padding change

	opt       *nesterov.Optimizer
	projectFn func(x []float64) // bound once; Step(p.project) would allocate per call

	// parallel execution state: one team for every kernel of the engine,
	// started for the duration of RunCtx; the position, projection and
	// force-sweep stages are bound once in NewChecked so the steady-state
	// iteration constructs no closures.
	team         *par.Team
	rects        []geom.Rect // reusable deposit list (movables + fillers)
	evalGrad     []float64   // operands of the in-flight force sweep
	gather       bool
	stageForce   func(w, lo, hi int)
	posX         []float64 // operands of the in-flight position stage
	posDesign    bool
	stagePos     func(w, lo, hi int)
	projX        []float64 // operand of the in-flight projection
	stageProject func(w, lo, hi int)

	// Raw (unscaled) field force on each rect of the last gathering sweep,
	// indexed like rects, and the field it was read from: the grid's
	// executed-solve count (-1 before the first sweep). The grid solves
	// exactly one rect list per count, so an eval that finds it unchanged
	// after its Solve is at the same rects under the same field and
	// re-applies λ and the preconditioner to these values instead of
	// gathering again.
	rawFx, rawFy []float64
	rawSolves    int
	noReuse      bool // tests only: gather on every eval

	// Wirelength carry: the movable coordinates ([x | y]) of the last eval
	// that ran the WA pass, whose gradient gradWx/gradWy still hold. An
	// eval at bit-equal movable coordinates keeps that gradient instead of
	// recomputing it — the accepted look-ahead point re-evaluated as the
	// next reference — which is stale only in γ. initLambda and a padding
	// round void it (wlValid): the first overwrites the gradient at u, the
	// second may have re-weighted the nets.
	wlX     []float64
	wlValid bool

	evals, forceReuses, wlCarries int

	// cumulative per-phase walls across the run (exposed as place.gp span
	// args): the four eval phases, then the rest of an iteration — the
	// overflow probe and the controller, the hook and its restart, the
	// exact HPWL and its telemetry, the Nesterov vector work — each less
	// the eval phases run inside it.
	wallWL, wallRaster, wallSolve, wallForce   time.Duration
	wallOverflow, wallHook, wallHPWL, wallStep time.Duration
}

// NewChecked builds the engine for d. The density grid is square, sized
// from the movable cell count (NextPow2(√n) clamped to [MinGridDim, 512]),
// and carries the fixed cells' baseline charge. The initial placement
// gathers movable cells near the region center with deterministic jitter
// (or, warm-started, keeps their current centers). It returns no error;
// the error result stays for the frozen benchmark harness, which compiles
// against it (ROADMAP item 9).
func NewChecked(d *netlist.Design, cfg Config) (*Placer, error) {
	p := &Placer{D: d, Cfg: cfg, movable: d.MovableIDs(), team: par.NewTeam(cfg.Workers)}
	n := len(p.movable)
	if n == 0 {
		return p, nil
	}

	m := geom.ClampInt(geom.NextPow2(int(math.Sqrt(float64(n)))), MinGridDim, 512)
	p.g = density.NewGrid(d.Region, m, m)
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			p.g.AddFixedRect(d.Cells[i].Rect(), 1)
		}
	}
	p.binBase = (p.g.BinW + p.g.BinH) / 2
	p.wl = wirelength.New(d, 8*p.binBase)
	p.gradWx = make([]float64, len(d.Cells))
	p.gradWy = make([]float64, len(d.Cells))

	// Fillers: fill target whitespace with average-size dummy cells.
	stats := d.Stats()
	if fillArea := float64(stats.FreeArea*targetDensity) - stats.CellArea; fillArea > 0 {
		avgW := 0.0
		for _, ci := range p.movable {
			avgW += d.Cells[ci].W
		}
		avgW /= float64(n)
		p.fillerW = math.Max(avgW, d.SiteWidth)
		p.fillerH = d.RowHeight
		if p.fillerH <= 0 {
			p.fillerH = 1
		}
		p.nFill = int(fillArea / (p.fillerW * p.fillerH))
	}
	p.activeFill = p.nFill
	p.g.SetTeam(p.team)
	p.wl.SetTeam(p.team)

	// Initial placement: region center plus jitter (or, warm-started, the
	// design's current centers), fillers uniform.
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := d.Region.Center()
	jx := d.Region.W() / 40
	jy := d.Region.H() / 40
	nm := len(p.movable)
	p.nVar = 2 * (nm + p.nFill)
	x0 := make([]float64, p.nVar)
	for k, ci := range p.movable {
		if cfg.WarmStart {
			ctr := d.Cells[ci].Rect().Center()
			x0[k] = ctr.X
			x0[nm+p.nFill+k] = ctr.Y
			continue
		}
		start := c
		if d.Cells[ci].Fence > 0 {
			start = d.FenceRect(ci).Center()
		}
		x0[k] = start.X + float64((float64(rng.Float64())*2-1)*jx)
		x0[nm+p.nFill+k] = start.Y + float64((float64(rng.Float64())*2-1)*jy)
	}
	for f := 0; f < p.nFill; f++ {
		x0[nm+f] = d.Region.Lo.X + float64(rng.Float64()*d.Region.W())
		x0[nm+p.nFill+nm+f] = d.Region.Lo.Y + float64(rng.Float64()*d.Region.H())
	}
	p.geo = make([]movGeom, nm)
	p.box = make([]geom.Rect, nm)
	for k, ci := range p.movable {
		c := &d.Cells[ci]
		cw, ch := float64(c.W/2), float64(c.H/2)
		p.geo[k] = movGeom{hw: cw, hh: ch, h: c.H, pins: float64(len(c.Pins))}
		b := d.FenceRect(ci)
		p.box[k] = geom.Rect{Lo: geom.Pt(b.Lo.X+cw, b.Lo.Y+ch), Hi: geom.Pt(b.Hi.X-cw, b.Hi.Y-ch)}
	}
	p.loadPadding()
	p.rects = make([]geom.Rect, 0, nm+p.nFill)
	p.rawFx = make([]float64, nm+p.nFill)
	p.rawFy = make([]float64, nm+p.nFill)
	p.rawSolves = -1
	p.wlX = make([]float64, 2*nm)
	p.ctl = newControl(cfg, nm)
	p.bindStage()
	p.opt = nesterov.New(x0, p.eval, p.binBase/4)
	p.opt.MaxBacktrack = 1
	p.opt.SetTeam(p.team)
	p.projectFn = p.project
	return p, nil
}

// Workers reports the engine's executor count: min(Config.Workers,
// GOMAXPROCS).
func (p *Placer) Workers() int { return p.team.Size() }

// bindStage constructs the position, projection and force-sweep bodies
// once. All three run over the rect index space [movables | fillers],
// which is also the layout of each half of the optimizer vector, and write
// disjoint slots, so any shard partition produces identical bits.
func (p *Placer) bindStage() {
	// Positions: movable k's origin, as SetCenter computes it from its
	// center in posX, into the wirelength model's origins (and, when
	// posDesign, into the design), and its padded outline into rects[k];
	// filler outlines centered on theirs.
	p.stagePos = func(w, lo, hi int) {
		x := p.posX
		nm := len(p.movable)
		off := nm + p.nFill
		ox, oy := p.wl.Origins()
		for k := lo; k < hi; k++ {
			if k >= nm {
				p.rects[k] = geom.RectWH(x[k]-float64(p.fillerW/2), x[off+k]-float64(p.fillerH/2), p.fillerW, p.fillerH)
				continue
			}
			ci, g := p.movable[k], &p.geo[k]
			cx, cy := x[k]-g.hw, x[off+k]-g.hh
			ox[ci], oy[ci] = cx, cy
			p.rects[k] = geom.RectWH(cx-g.padHalf, cy, g.pw, g.h)
			if p.posDesign {
				p.D.Cells[ci].X, p.D.Cells[ci].Y = cx, cy
			}
		}
	}
	// Projection: clamp each center into its cell's fence (the region for
	// fillers and unfenced cells).
	p.stageProject = func(w, lo, hi int) {
		r := p.D.Region
		x := p.projX
		nm := len(p.movable)
		off := nm + p.nFill
		for k := lo; k < hi; k++ {
			if k >= nm {
				hw, hh := float64(p.fillerW/2), float64(p.fillerH/2)
				x[k] = geom.Clamp(x[k], r.Lo.X+hw, r.Hi.X-hw)
				x[off+k] = geom.Clamp(x[off+k], r.Lo.Y+hh, r.Hi.Y-hh)
				continue
			}
			b := &p.box[k]
			x[k] = geom.Clamp(x[k], b.Lo.X, b.Hi.X)
			x[off+k] = geom.Clamp(x[off+k], b.Lo.Y, b.Hi.Y)
		}
	}
	// Forces: read the solved field (through the footprints the deposit
	// resolved) and apply λ and the preconditioner.
	p.stageForce = func(w, lo, hi int) {
		nm := len(p.movable)
		off := nm + p.nFill
		grad := p.evalGrad
		lambda := p.ctl.lambda
		hFill := math.Max(1, lambda*(p.fillerW*p.fillerH))
		for k := lo; k < hi; k++ {
			if k >= nm+p.activeFill { // retired filler
				grad[k], grad[off+k] = 0, 0
				continue
			}
			if p.gather {
				p.rawFx[k], p.rawFy[k] = p.g.DepositedForce(k)
			}
			if k >= nm {
				grad[k] = -lambda * p.rawFx[k] / hFill
				grad[off+k] = -lambda * p.rawFy[k] / hFill
				continue
			}
			ci, g := p.movable[k], &p.geo[k]
			gx := p.gradWx[ci] - float64(lambda*p.rawFx[k])
			gy := p.gradWy[ci] - float64(lambda*p.rawFy[k])
			// Preconditioner: pin count + λ·charge, per ePlace.
			h := max(1, g.pins+float64(lambda*g.pw*g.h))
			grad[k] = gx / h
			grad[off+k] = gy / h
		}
	}
}

// Grid exposes the density grid driving the engine (nil for a design with
// no movable cells).
func (p *Placer) Grid() *density.Grid { return p.g }

// loadPadding reloads the padding entries of geo from the design.
func (p *Placer) loadPadding() {
	for k, ci := range p.movable {
		c := &p.D.Cells[ci]
		p.geo[k].padHalf, p.geo[k].pw = float64(c.PadW/2), c.PaddedW()
	}
}

// resolve runs the position stage on vector x: the first n rects of the
// deposit list (the movables, then n-nm fillers) and the wirelength model's
// origins of the movables — and, with design, the movables' positions in
// the design, which the hook and the padding optimizer read.
func (p *Placer) resolve(x []float64, n int, design bool) {
	p.rects = p.rects[:n]
	p.posX, p.posDesign = x, design
	p.team.Shards(n, p.stagePos)
	p.posX = nil
}

// eval is the gradient oracle for the Nesterov optimizer: it computes
// ∇(W + λD) at positions x, preconditioned per variable. One position
// stage resolves x into the wirelength origins and the deposit rects; then
// the four phases — density rasterization (footprints, then bands),
// wirelength gradient, spectral solve, force sweep — run across the
// configured workers, and their cumulative walls land in the place.gp span
// args (the position stage counts as raster). It writes nothing into the
// design. The wirelength gradient is carried over from the previous WA
// pass when the movable coordinates are bit-equal to its (see wlX), and
// the force sweep reuses the raw forces of the previous gathering sweep
// when the field and the rects are still the ones it read (see rawFx).
func (p *Placer) eval(x, grad []float64) {
	t := time.Now()
	p.resolve(x, len(p.movable)+p.activeFill, false)
	p.g.DepositRects(p.rects)
	p.wallRaster += time.Since(t)

	t = time.Now()
	if p.carryWL(x) {
		p.wlCarries++
	} else {
		p.wl.Gamma = p.gamma
		p.wl.GradAtOrigins(p.gradWx, p.gradWy)
	}
	p.wallWL += time.Since(t)

	t = time.Now()
	p.g.Solve()
	p.wallSolve += time.Since(t)

	t = time.Now()
	p.evals++
	p.gather = p.noReuse || p.rawSolves != p.g.Solves()
	if p.gather {
		p.rawSolves = p.g.Solves()
	} else {
		p.forceReuses++
	}
	p.evalGrad = grad
	p.team.Shards(len(p.movable)+p.nFill, p.stageForce)
	p.evalGrad = nil
	p.wallForce += time.Since(t)
}

// carryWL reports whether gradWx/gradWy were computed at x's movable
// coordinates, bit for bit; when not, it records x's as the coordinates
// the caller is about to compute them at.
func (p *Placer) carryWL(x []float64) bool {
	nm := len(p.movable)
	off := nm + p.nFill
	xs, ys := x[:nm], x[off:off+nm]
	if p.wlValid && bitsEqual(xs, p.wlX[:nm]) && bitsEqual(ys, p.wlX[nm:]) {
		return true
	}
	copy(p.wlX[:nm], xs)
	copy(p.wlX[nm:], ys)
	p.wlValid = true
	return false
}

// bitsEqual reports whether a and b (of equal length) hold the same float
// bits: unlike ==, it tells -0 from +0.
func bitsEqual(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// project clamps every coordinate so cell centers stay inside the region
// (or the cell's fence, when constrained), in a team stage.
func (p *Placer) project(x []float64) {
	p.projX = x
	p.team.Shards(len(p.movable)+p.nFill, p.stageProject)
	p.projX = nil
}

// computeOverflow measures density overflow of movable cells only (the τ
// trigger metric), at the current major solution, and leaves the design and
// the wirelength origins there: the hook, the padding optimizer and the
// iteration's HPWL read them.
func (p *Placer) computeOverflow() float64 {
	p.resolve(p.opt.Current(), len(p.movable), true) // movables only: fillers are not congestion
	return p.g.OverflowOf(p.rects, targetDensity, p.movArea+p.padArea)
}

// updateGamma applies the ePlace γ schedule: smooth when overflow is high,
// sharp as the placement converges.
func (p *Placer) updateGamma() {
	ovf := geom.Clamp(p.overflow, 0, 1)
	k := 20.0 / 9.0
	b := -11.0 / 9.0
	p.gamma = 8 * p.binBase * math.Pow(10, float64(k*ovf)+b)
}

// initLambda returns the λ that balances the wirelength and density
// gradient norms at u. It loads every cell's origin into the wirelength
// model — the fixed cells' stay there for the run, the position stage
// rewrites the movables' — and leaves the design at u. It overwrites the
// wirelength gradient at u, so the next eval recomputes it.
func (p *Placer) initLambda() float64 {
	p.loadPadding()
	p.wl.SyncOrigins()
	p.resolve(p.opt.Current(), len(p.movable)+p.activeFill, true)
	p.wl.Gamma = p.gamma
	p.wl.GradAtOrigins(p.gradWx, p.gradWy)
	p.wlValid = false
	p.g.DepositRects(p.rects)
	p.g.Solve()

	sumW, sumD := 0.0, 0.0
	for k, ci := range p.movable {
		fx, fy := p.g.ForceOnRect(p.rects[k])
		sumW += math.Abs(p.gradWx[ci]) + math.Abs(p.gradWy[ci])
		sumD += math.Abs(fx) + math.Abs(fy)
	}
	if sumD > 0 {
		return sumW / sumD
	}
	return 1
}

// lapMark is where the current section of an iteration began: the wall
// clock and the eval phases' cumulative wall.
type lapMark struct {
	at    time.Time
	evals time.Duration
}

func (p *Placer) evalWall() time.Duration {
	return p.wallWL + p.wallRaster + p.wallSolve + p.wallForce
}

func (p *Placer) startLap() lapMark { return lapMark{time.Now(), p.evalWall()} }

// lap adds the wall since m, less the eval phases run inside it (they have
// walls of their own), to *acc, and starts the next section.
func (p *Placer) lap(m *lapMark, acc *time.Duration) {
	next := p.startLap()
	*acc += next.at.Sub(m.at) - (next.evals - m.evals)
	*m = next
}

// retireFillers deactivates fillers to offset padArea of newly added cell
// padding, keeping total charge roughly constant.
func (p *Placer) retireFillers(padArea float64) {
	if p.nFill == 0 || padArea <= 0 {
		return
	}
	drop := int(padArea / (p.fillerW * p.fillerH))
	p.activeFill -= drop
	if p.activeFill < 0 {
		p.activeFill = 0
	}
}

// Run executes global placement until it stops, calling hook (if any)
// every iteration it goes on from. Final positions are written back to the
// design.
func (p *Placer) Run(hook Hook) *Result {
	res, _ := p.RunCtx(context.Background(), hook)
	return res
}

// RunCtx is Run with cancellation: the context is checked once per
// Nesterov iteration, so a cancel or deadline is observed within one
// iteration of work. A run that stops by its own rules writes back the
// final iterate, or the best since the last padding round when the final
// overflow is more than 1 % above its (see control). On cancellation the
// current major solution is written back (every intermediate placement is
// a valid, in-region placement) and the partial Result is returned
// alongside an error wrapping flow.ErrCanceled.
func (p *Placer) RunCtx(ctx context.Context, hook Hook) (*Result, error) {
	res := &Result{Stop: StopMaxIters}
	if len(p.movable) == 0 {
		res.Stop = StopTarget // nothing to spread
		if err := flow.Check(ctx); err != nil {
			res.Stop = StopCanceled
			return res, err
		}
		return res, nil
	}
	p.team.Start()
	defer p.team.Stop()
	p.overflow = 1
	p.movArea, p.padArea = p.D.TotalMovableArea(), p.D.TotalPaddingArea()
	p.updateGamma()
	p.ctl.start(p.initLambda(), p.wl.HPWLAtOrigins())

	// Telemetry instruments resolve once; with a nil recorder every
	// Observe below is a nil-check no-op (0 allocs on this hot path —
	// see obs.BenchmarkDisabledTelemetryPerIteration).
	rec := p.Cfg.Obs
	sHPWL := rec.Series("place.hpwl")
	sOvf := rec.Series("place.overflow")
	sLambda := rec.Series("place.lambda")
	sGamma := rec.Series("place.gamma")
	sStep := rec.Series("place.step_len")
	cIters := rec.Counter("place.iters")
	span, ctx := obs.Start(ctx, rec, "place.gp")
	defer func() {
		span.SetArg("workers", p.team.Size())
		span.SetArg("handoffs", p.team.Handoffs())
		span.SetArg("iters", res.Iters)
		span.SetArg("stop", res.Stop)
		span.SetArg("best_iter", res.BestIter)
		span.SetArg("restored", res.Restored)
		span.SetArg("wl_grad_ms", p.wallWL.Seconds()*1e3)
		span.SetArg("raster_ms", p.wallRaster.Seconds()*1e3)
		span.SetArg("solve_ms", p.wallSolve.Seconds()*1e3)
		span.SetArg("force_ms", p.wallForce.Seconds()*1e3)
		span.SetArg("overflow_ms", p.wallOverflow.Seconds()*1e3)
		span.SetArg("hook_ms", p.wallHook.Seconds()*1e3)
		span.SetArg("hpwl_ms", p.wallHPWL.Seconds()*1e3)
		span.SetArg("step_ms", p.wallStep.Seconds()*1e3)
		span.SetArg("density_solves", p.g.Solves())
		span.SetArg("density_solve_skips", p.g.SolveSkips())
		span.SetArg("evals", p.evals)
		span.SetArg("raster_skips", p.g.RasterSkips())
		span.SetArg("force_reuses", p.forceReuses)
		span.SetArg("wl_carries", p.wlCarries)
		span.End()
	}()

	ring := newTraceRing(DefaultTraceCap)
	nm := len(p.movable)
	off := nm + p.nFill
	var err error
	for iter := 1; iter <= p.Cfg.MaxIters; iter++ {
		if err = flow.Check(ctx); err != nil {
			res.Stop = StopCanceled
			break
		}
		lap := p.startLap()
		p.overflow = p.computeOverflow()
		p.updateGamma()
		x := p.opt.Current()
		stop := p.ctl.observe(iter, p.overflow, x[:nm], x[off:off+nm])
		p.lap(&lap, &p.wallOverflow)

		padded := false
		if !stop && hook != nil {
			padded = hook.OnIteration(iter, p.overflow)
			p.loadPadding() // only a hook pads cells, whatever it returns
		}
		if padded {
			newPad := p.D.TotalPaddingArea()
			p.retireFillers(newPad - p.padArea)
			p.padArea = newPad
			// The objective changed shape: drop the stale Nesterov
			// momentum and the carried wirelength gradient (the round may
			// have re-weighted the nets). λ carries over. The restart
			// evaluates at the reference point v, and this iteration's
			// HPWL is read there — as the design is left — so both move
			// to v.
			p.wlValid = false
			p.opt.Restart()
			p.resolve(p.opt.Reference(), nm, true)
			p.ctl.round(iter)
		}
		p.lap(&lap, &p.wallHook)

		hpwl := p.wl.HPWLAtOrigins()
		if p.Cfg.Logf != nil && iter%50 == 0 {
			p.Cfg.Logf("place: iter=%d overflow=%.4f hpwl=%.0f lambda=%.3g gamma=%.3g",
				iter, p.overflow, hpwl, p.ctl.lambda, p.gamma)
		}
		ring.add(IterStats{
			Iter: iter, HPWL: hpwl, Overflow: p.overflow,
			Lambda: p.ctl.lambda, Gamma: p.gamma, Padded: padded,
		})
		sHPWL.Observe(iter, hpwl)
		sOvf.Observe(iter, p.overflow)
		sLambda.Observe(iter, p.ctl.lambda)
		sGamma.Observe(iter, p.gamma)
		sStep.Observe(iter, p.opt.Alpha())
		cIters.Inc()
		res.Iters = iter
		p.lap(&lap, &p.wallHPWL)
		if stop {
			res.Stop = p.ctl.stop
			break
		}
		p.opt.Step(p.projectFn)
		p.ctl.adapt(hpwl)
		p.lap(&lap, &p.wallStep)
	}

	res.BestIter = p.ctl.bestIter
	if err == nil && p.ctl.snapped && res.Stop == StopMaxIters {
		p.overflow = p.computeOverflow() // the last step's iterate was never measured
	}
	if err == nil && p.ctl.restore(p.overflow) {
		for k, ci := range p.movable {
			p.D.Cells[ci].SetCenter(geom.Pt(p.ctl.snap[k], p.ctl.snap[nm+k]))
		}
		p.overflow = p.ctl.best
		res.Restored = true
	} else {
		p.resolve(p.opt.Current(), nm, true)
	}
	res.HPWL = p.D.HPWL()
	res.Overflow = p.overflow
	res.Trace = ring.items()
	res.TraceDropped = ring.dropped
	return res, err
}
