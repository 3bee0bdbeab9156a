// Package place implements the electrostatic global placement engine
// (paper Sec. II-B): the unconstrained objective f = W + λ·D of Eq. 1,
// with WA wirelength (Eq. 2), spectral electrostatic density (Eqs. 3–6),
// Nesterov iterations, filler cells occupying target whitespace, λ and γ
// scheduling, and a pluggable routability-optimizer hook that is invoked
// every iteration so cell padding can steer the spreading (paper Fig. 2).
package place

import (
	"context"
	"fmt"
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

// MinGridDim is the smallest density-grid dimension the engine accepts
// (and the floor of the automatic selection). Below it the spectral model
// has too few modes to produce a useful spreading force.
const MinGridDim = 16

// ConfigError reports a Config field that failed validation. It is a typed
// error so callers can distinguish a bad configuration from a runtime
// failure (errors.As(&place.ConfigError{})) instead of catching a panic
// from deep inside the spectral setup.
type ConfigError struct {
	Field  string // the offending Config field
	Reason string // human-readable constraint violation
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("place: invalid Config.%s: %s", e.Field, e.Reason)
}

// Config controls the global placement engine.
type Config struct {
	// GridM/GridN are the density grid dimensions (powers of two,
	// ≥ MinGridDim). Zero selects them automatically from the movable cell
	// count.
	GridM, GridN int
	// TargetDensity is the placement target density in (0, 1].
	TargetDensity float64
	// MaxIters bounds the Nesterov iterations.
	MaxIters int
	// StopOverflow is the density overflow below which placement stops.
	StopOverflow float64
	// MinIters prevents premature convergence checks.
	MinIters int
	// PlateauIters stops placement when the density overflow has not
	// improved for this many iterations (the target StopOverflow may be
	// unreachable once padding has grown the effective cell area).
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
	// QuadraticInit bootstraps the initial placement with star-model
	// Jacobi sweeps (quadratic-placement style) instead of pure
	// center-plus-jitter, pre-forming clusters before the nonlinear
	// engine runs. Ignored when WarmStart is set.
	QuadraticInit bool
	// WarmStart seeds the initial placement from the design's current
	// movable-cell centers instead of center-plus-jitter — the ECO path:
	// a previous placement is already a near-solution for a small delta,
	// so the engine only has to absorb the change. Fillers are still
	// seeded uniformly from Seed (they carry no state worth keeping), and
	// QuadraticInit is skipped.
	WarmStart bool
	// Reuse, when non-nil, offers warm engine state harvested from a
	// previous Placer via ReuseState. NewChecked adopts each piece only
	// when it still matches this design and configuration (see Reuse);
	// a mismatched piece is silently rebuilt, so offering stale state is
	// safe but wasteful, never wrong.
	Reuse *Reuse `json:"-"`
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

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		TargetDensity: 0.9,
		MaxIters:      600,
		StopOverflow:  0.07,
		MinIters:      40,
		PlateauIters:  120,
		LambdaMu:      1.05,
	}
}

// validGridDim reports whether m is an acceptable density-grid dimension:
// a power of two no smaller than MinGridDim.
func validGridDim(m int) bool {
	return m >= MinGridDim && m&(m-1) == 0
}

// Validate checks the configuration's structural constraints and returns a
// *ConfigError naming the first violated field, or nil. Zero GridM/GridN
// are valid (automatic selection); New / NewChecked validate again after
// resolving the automatic values.
func (cfg *Config) Validate() error {
	if cfg.TargetDensity <= 0 || cfg.TargetDensity > 1 {
		return &ConfigError{Field: "TargetDensity",
			Reason: fmt.Sprintf("%v out of (0, 1]", cfg.TargetDensity)}
	}
	if cfg.GridM != 0 && !validGridDim(cfg.GridM) {
		return &ConfigError{Field: "GridM",
			Reason: fmt.Sprintf("%d is not a power of two >= %d", cfg.GridM, MinGridDim)}
	}
	if cfg.GridN != 0 && !validGridDim(cfg.GridN) {
		return &ConfigError{Field: "GridN",
			Reason: fmt.Sprintf("%d is not a power of two >= %d", cfg.GridN, MinGridDim)}
	}
	return nil
}

// Reuse carries warm engine state harvested from a finished Placer via
// ReuseState, for adoption by a later NewChecked on the SAME design
// instance (the ECO session path). Each piece is adopted independently and
// only when it still matches:
//
//   - Den is adopted when it has the resolved GridM×GridN dimensions over
//     the design region. Adoption skips the fixed-cell baseline rebuild —
//     the grid already carries it — so the caller must drop Den whenever
//     a fixed cell moved or resized. Deposit fingerprints survive
//     adoption: re-depositing an identical rect list still skips the
//     rasterize and solve, which is exactness-safe because skips only
//     fire on bit-identical input.
//   - WL is adopted when it was built for this design instance (pointer
//     equality); γ is (re)set per run, so a model outlives any particular
//     schedule.
//
// A mismatched piece is rebuilt from scratch — offering stale state never
// changes results, it only wastes the rebuild. An adopted piece is re-bound
// to the new engine's team.
type Reuse struct {
	Den *density.Grid
	WL  *wirelength.Model
}

// Hook is the routability-optimizer callback invoked once per iteration
// with the current density overflow. It returns true when it changed cell
// padding, so the engine refreshes charge areas and retires fillers to
// compensate for the added padding area.
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

// Placer is the global placement engine for one design.
type Placer struct {
	D   *netlist.Design
	Cfg Config

	movable []int // movable cell IDs
	g       *density.Grid
	wl      *wirelength.Model

	// fillers
	nFill      int
	activeFill int
	fillerW    float64
	fillerH    float64

	// optimization state: vector layout is
	// [x of movables | x of fillers | y of movables | y of fillers].
	nVar           int
	gradWx, gradWy []float64 // per-cell wirelength gradients (all cells)
	lambda         float64
	gamma          float64
	overflow       float64
	binBase        float64
	movArea        float64 // movable cell area (constant during a run)
	padArea        float64 // padding area as of the last padding change

	opt       *nesterov.Optimizer
	projectFn func(x []float64) // bound once; Step(p.project) would allocate per call

	// parallel execution state: one team for every kernel of the engine,
	// started for the duration of RunCtx; the force-sweep stage is bound
	// once in New so the steady-state iteration constructs no closures.
	team       *par.Team
	rects      []geom.Rect // reusable deposit list (movables + fillers)
	evalGrad   []float64   // operands of the in-flight force sweep
	gather     bool
	stageForce func(w, lo, hi int)

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

	evals, forceReuses int

	// cumulative per-phase walls across the run (exposed as obs span args
	// and place.phase.* gauges)
	wallWL, wallRaster, wallSolve, wallForce time.Duration
}

// New builds a placer for d, panicking on an invalid configuration. The
// initial placement gathers movable cells near the region center with
// deterministic jitter.
func New(d *netlist.Design, cfg Config) *Placer {
	p, err := NewChecked(d, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewChecked is New returning configuration problems as a *ConfigError
// instead of panicking — the form pipeline stages and services use, so a
// bad grid size is rejected at normalization rather than detonating inside
// the spectral setup.
func NewChecked(d *netlist.Design, cfg Config) (*Placer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Placer{D: d, Cfg: cfg, movable: d.MovableIDs(), team: par.NewTeam(cfg.Workers)}
	n := len(p.movable)
	if n == 0 {
		return p, nil
	}

	if cfg.GridM == 0 {
		g := geom.NextPow2(int(math.Sqrt(float64(n))))
		cfg.GridM = geom.ClampInt(g, MinGridDim, 512)
	}
	if cfg.GridN == 0 {
		cfg.GridN = cfg.GridM
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.Cfg = cfg

	if r := cfg.Reuse; r != nil && r.Den != nil &&
		r.Den.M == cfg.GridM && r.Den.N == cfg.GridN && r.Den.Region == d.Region {
		p.g = r.Den
	}
	if p.g == nil {
		p.g = density.NewGrid(d.Region, cfg.GridM, cfg.GridN)
		for i := range d.Cells {
			if d.Cells[i].Fixed {
				p.g.AddFixedRect(d.Cells[i].Rect(), 1)
			}
		}
	}
	p.binBase = (p.g.BinW + p.g.BinH) / 2
	if r := cfg.Reuse; r != nil && r.WL != nil && r.WL.Design() == d {
		p.wl = r.WL
	} else {
		p.wl = wirelength.New(d, 8*p.binBase)
	}
	p.gradWx = make([]float64, len(d.Cells))
	p.gradWy = make([]float64, len(d.Cells))

	// Fillers: fill target whitespace with average-size dummy cells.
	stats := d.Stats()
	if fillArea := stats.FreeArea*cfg.TargetDensity - stats.CellArea; fillArea > 0 {
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
		x0[k] = start.X + (rng.Float64()*2-1)*jx
		x0[nm+p.nFill+k] = start.Y + (rng.Float64()*2-1)*jy
	}
	for f := 0; f < p.nFill; f++ {
		x0[nm+f] = d.Region.Lo.X + rng.Float64()*d.Region.W()
		x0[nm+p.nFill+nm+f] = d.Region.Lo.Y + rng.Float64()*d.Region.H()
	}
	if cfg.QuadraticInit && !cfg.WarmStart {
		p.quadraticInit(x0, 20)
	}
	p.rects = make([]geom.Rect, 0, nm+p.nFill)
	p.rawFx = make([]float64, nm+p.nFill)
	p.rawFy = make([]float64, nm+p.nFill)
	p.rawSolves = -1
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

// ReuseState harvests the engine state worth carrying into a later run on
// the same design: the density grid (fixed baseline, fingerprints, FFT
// plans) and the wirelength model (per-worker scratch). See Reuse for the
// adoption rules. The Placer must not be used concurrently with a new
// engine that adopted its state.
func (p *Placer) ReuseState() *Reuse {
	if p.g == nil {
		return nil
	}
	return &Reuse{Den: p.g, WL: p.wl}
}

// bindStage constructs the force-sweep body once. It runs over the rect
// index space [movables | fillers], which is also the layout of each half of
// the gradient vector. It only reads the solved field (Grid.ForceOnRect is
// read-only) and writes disjoint gradient and raw-force slots, so any shard
// partition produces identical bits.
func (p *Placer) bindStage() {
	p.stageForce = func(w, lo, hi int) {
		d := p.D
		nm := len(p.movable)
		off := nm + p.nFill
		grad := p.evalGrad
		lambda := p.lambda
		hFill := math.Max(1, lambda*(p.fillerW*p.fillerH))
		for k := lo; k < hi; k++ {
			if k >= nm+p.activeFill { // retired filler
				grad[k], grad[off+k] = 0, 0
				continue
			}
			if p.gather {
				p.rawFx[k], p.rawFy[k] = p.g.ForceOnRect(p.rects[k])
			}
			if k >= nm {
				grad[k] = -lambda * p.rawFx[k] / hFill
				grad[off+k] = -lambda * p.rawFy[k] / hFill
				continue
			}
			ci := p.movable[k]
			c := &d.Cells[ci]
			gx := p.gradWx[ci] - lambda*p.rawFx[k]
			gy := p.gradWy[ci] - lambda*p.rawFy[k]
			// Preconditioner: pin count + λ·charge, per ePlace.
			h := math.Max(1, float64(len(c.Pins))+lambda*c.PaddedW()*c.H)
			grad[k] = gx / h
			grad[off+k] = gy / h
		}
	}
}

// Grid exposes the density grid driving the engine (nil for a design with
// no movable cells).
func (p *Placer) Grid() *density.Grid { return p.g }

// writePositions scatters the movable-cell portion of vector x into the
// design as cell centers.
func (p *Placer) writePositions(x []float64) {
	nm := len(p.movable)
	off := nm + p.nFill
	for k, ci := range p.movable {
		p.D.Cells[ci].SetCenter(geom.Pt(x[k], x[off+k]))
	}
}

// buildRects refreshes the reusable deposit list: the padded outlines of
// all movable cells in movable order, then the first nFillActive filler
// outlines read from x. The backing array is retained across calls.
func (p *Placer) buildRects(x []float64, nFillActive int) {
	nm := len(p.movable)
	off := nm + p.nFill
	p.rects = p.rects[:0]
	for _, ci := range p.movable {
		p.rects = append(p.rects, p.D.Cells[ci].PaddedRect())
	}
	for f := 0; f < nFillActive; f++ {
		p.rects = append(p.rects, geom.RectWH(x[nm+f]-p.fillerW/2, x[off+nm+f]-p.fillerH/2, p.fillerW, p.fillerH))
	}
}

// eval is the gradient oracle for the Nesterov optimizer: it computes
// ∇(W + λD) at positions x, preconditioned per variable. Its four phases —
// wirelength gradient, density rasterization, spectral solve, force sweep —
// run across the configured workers, and their cumulative walls feed the
// place.phase.* telemetry. The force sweep reuses the raw forces of the
// previous gathering sweep when the field and the rects are still the ones
// it read (see rawFx).
func (p *Placer) eval(x, grad []float64) {
	t := time.Now()
	p.writePositions(x)
	p.wl.Gamma = p.gamma
	p.wl.WirelengthAndGrad(p.gradWx, p.gradWy)
	p.wallWL += time.Since(t)

	t = time.Now()
	p.buildRects(x, p.activeFill)
	p.g.DepositRects(p.rects)
	p.wallRaster += time.Since(t)

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

// project clamps every coordinate so cell centers stay inside the region
// (or the cell's fence, when constrained).
func (p *Placer) project(x []float64) {
	d := p.D
	nm := len(p.movable)
	off := nm + p.nFill
	lo, hi := d.Region.Lo, d.Region.Hi
	for k, ci := range p.movable {
		c := &d.Cells[ci]
		b := d.FenceRect(ci)
		x[k] = geom.Clamp(x[k], b.Lo.X+c.W/2, b.Hi.X-c.W/2)
		x[off+k] = geom.Clamp(x[off+k], b.Lo.Y+c.H/2, b.Hi.Y-c.H/2)
	}
	for f := 0; f < p.nFill; f++ {
		x[nm+f] = geom.Clamp(x[nm+f], lo.X+p.fillerW/2, hi.X-p.fillerW/2)
		x[off+nm+f] = geom.Clamp(x[off+nm+f], lo.Y+p.fillerH/2, hi.Y-p.fillerH/2)
	}
}

// computeOverflow measures density overflow of movable cells only (the τ
// trigger metric), at the current major solution.
func (p *Placer) computeOverflow() float64 {
	x := p.opt.Current()
	p.writePositions(x)
	p.buildRects(x, 0) // movables only: fillers are not congestion
	return p.g.OverflowOf(p.rects, p.Cfg.TargetDensity, p.movArea+p.padArea)
}

// updateGamma applies the ePlace γ schedule: smooth when overflow is high,
// sharp as the placement converges.
func (p *Placer) updateGamma() {
	ovf := geom.Clamp(p.overflow, 0, 1)
	k := 20.0 / 9.0
	b := -11.0 / 9.0
	p.gamma = 8 * p.binBase * math.Pow(10, k*ovf+b)
}

// initLambda balances the initial wirelength and density gradient norms.
func (p *Placer) initLambda() {
	x := p.opt.Current()

	p.writePositions(x)
	p.wl.Gamma = p.gamma
	p.wl.WirelengthAndGrad(p.gradWx, p.gradWy)
	p.buildRects(x, p.activeFill)
	p.g.DepositRects(p.rects)
	p.g.Solve()

	sumW, sumD := 0.0, 0.0
	for k, ci := range p.movable {
		fx, fy := p.g.ForceOnRect(p.rects[k])
		sumW += math.Abs(p.gradWx[ci]) + math.Abs(p.gradWy[ci])
		sumD += math.Abs(fx) + math.Abs(fy)
	}
	if sumD > 0 {
		p.lambda = sumW / sumD
	} else {
		p.lambda = 1
	}
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

// Run executes global placement until convergence, calling hook (if any)
// every iteration. Final positions are written back to the design.
func (p *Placer) Run(hook Hook) *Result {
	res, _ := p.RunCtx(context.Background(), hook)
	return res
}

// RunCtx is Run with cancellation: the context is checked once per
// Nesterov iteration, so a cancel or deadline is observed within one
// iteration of work. On cancellation the current major solution is still
// written back to the design (every intermediate placement is a valid,
// in-region placement) and the partial Result is returned alongside an
// error wrapping flow.ErrCanceled.
func (p *Placer) RunCtx(ctx context.Context, hook Hook) (*Result, error) {
	res := &Result{}
	if len(p.movable) == 0 {
		return res, flow.Check(ctx)
	}
	p.team.Start()
	defer p.team.Stop()
	p.overflow = 1
	p.movArea, p.padArea = p.D.TotalMovableArea(), p.D.TotalPaddingArea()
	p.updateGamma()
	p.initLambda()

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
	gPhaseWL := rec.Gauge("place.phase.wl_grad_ms")
	gPhaseRaster := rec.Gauge("place.phase.raster_ms")
	gPhaseSolve := rec.Gauge("place.phase.solve_ms")
	gPhaseForce := rec.Gauge("place.phase.force_ms")
	gDenAnalysis := rec.Gauge("place.phase.density_analysis_ms")
	gDenSolve := rec.Gauge("place.phase.density_solve_ms")
	gDenSynth := rec.Gauge("place.phase.density_synthesis_ms")
	gEvals := rec.Gauge("place.evals")
	gRasterSkips := rec.Gauge("place.raster_skips")
	gForceReuses := rec.Gauge("place.force_reuses")
	span, ctx := obs.Start(ctx, rec, "place.gp")
	defer func() {
		span.SetArg("workers", p.team.Size())
		span.SetArg("iters", res.Iters)
		span.SetArg("wl_grad_ms", p.wallWL.Seconds()*1e3)
		span.SetArg("raster_ms", p.wallRaster.Seconds()*1e3)
		span.SetArg("solve_ms", p.wallSolve.Seconds()*1e3)
		span.SetArg("force_ms", p.wallForce.Seconds()*1e3)
		span.SetArg("density_solves", p.g.Solves())
		span.SetArg("density_solve_skips", p.g.SolveSkips())
		span.SetArg("evals", p.evals)
		span.SetArg("raster_skips", p.g.RasterSkips())
		span.SetArg("force_reuses", p.forceReuses)
		span.End()
	}()
	flushPhases := func() {
		gPhaseWL.Set(p.wallWL.Seconds() * 1e3)
		gPhaseRaster.Set(p.wallRaster.Seconds() * 1e3)
		gPhaseSolve.Set(p.wallSolve.Seconds() * 1e3)
		gPhaseForce.Set(p.wallForce.Seconds() * 1e3)
		// The spectral solve split by phase, from the grid's own clocks.
		da, df, ds := p.g.PhaseWalls()
		gDenAnalysis.Set(da.Seconds() * 1e3)
		gDenSolve.Set(df.Seconds() * 1e3)
		gDenSynth.Set(ds.Seconds() * 1e3)
		gEvals.Set(float64(p.evals))
		gRasterSkips.Set(float64(p.g.RasterSkips()))
		gForceReuses.Set(float64(p.forceReuses))
	}

	ring := newTraceRing(DefaultTraceCap)
	flushTrace := func() {
		res.Trace = ring.items()
		res.TraceDropped = ring.dropped
	}

	prevHPWL := p.wl.HPWL()
	bestOverflow := math.Inf(1)
	bestIter := 0
	for iter := 1; iter <= p.Cfg.MaxIters; iter++ {
		if err := flow.Check(ctx); err != nil {
			p.writePositions(p.opt.Current())
			res.HPWL = p.D.HPWL()
			res.Overflow = p.overflow
			flushTrace()
			return res, err
		}
		p.overflow = p.computeOverflow()
		p.updateGamma()

		padded := false
		if hook != nil {
			padded = hook.OnIteration(iter, p.overflow)
			if padded {
				newPad := p.D.TotalPaddingArea()
				p.retireFillers(newPad - p.padArea)
				p.padArea = newPad
				// The objective changed shape: re-balance the density
				// penalty against the wirelength gradient and drop the
				// stale Nesterov momentum, otherwise λ keeps compounding
				// through the absorption phase and shreds the wirelength.
				p.initLambda()
				p.opt.Restart()
			}
		}

		hpwl := p.wl.HPWL()
		if p.Cfg.Logf != nil && iter%50 == 0 {
			p.Cfg.Logf("place: iter=%d overflow=%.4f hpwl=%.0f lambda=%.3g gamma=%.3g",
				iter, p.overflow, hpwl, p.lambda, p.gamma)
		}
		ring.add(IterStats{
			Iter: iter, HPWL: hpwl, Overflow: p.overflow,
			Lambda: p.lambda, Gamma: p.gamma, Padded: padded,
		})
		sHPWL.Observe(iter, hpwl)
		sOvf.Observe(iter, p.overflow)
		sLambda.Observe(iter, p.lambda)
		sGamma.Observe(iter, p.gamma)
		sStep.Observe(iter, p.opt.Alpha())
		cIters.Inc()
		flushPhases()
		res.Iters = iter

		if iter >= p.Cfg.MinIters && p.overflow <= p.Cfg.StopOverflow {
			break
		}
		// Plateau detection: padding can make StopOverflow unreachable;
		// once overflow stops improving, more iterations only let λ
		// compound and shred the wirelength.
		if p.overflow < bestOverflow*0.999 {
			bestOverflow = p.overflow
			bestIter = iter
		}
		if p.Cfg.PlateauIters > 0 && iter >= p.Cfg.MinIters && iter-bestIter >= p.Cfg.PlateauIters {
			break
		}
		p.opt.Step(p.projectFn)

		// Adaptive penalty schedule: full LambdaMu growth while HPWL is
		// steady, down to 1/LambdaMu when wirelength degrades faster than
		// 3% per iteration (density force dominating). The 3% reference
		// still lets the necessary spreading-phase HPWL growth happen.
		ref := 0.03 * math.Max(hpwl, 1e-9)
		arg := geom.Clamp(1-(hpwl-prevHPWL)/ref, -1, 1)
		p.lambda *= math.Pow(p.Cfg.LambdaMu, arg)
		prevHPWL = hpwl
	}

	p.writePositions(p.opt.Current())
	res.HPWL = p.D.HPWL()
	res.Overflow = p.overflow
	flushTrace()
	return res, nil
}
