package place

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/nesterov"
	"puffer/internal/netlist"
)

// gpBenchDesign builds a synthetic design of nc unit cells in a side×side
// region (pick ~25% utilization so fillers engage) for the GP iteration
// benchmarks and determinism tests.
func gpBenchDesign(seed int64, nc int, side float64) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{
		Name:      "gpbench",
		Region:    geom.RectWH(0, 0, side, side),
		RowHeight: 1,
		SiteWidth: 0.25,
		Layers:    netlist.DefaultLayers(),
	}
	for i := 0; i < nc; i++ {
		d.AddCell(netlist.Cell{W: 1, H: 1, X: side / 2, Y: side / 2})
	}
	for i := 0; i+3 < nc; i += 2 {
		n := d.AddNet("", 1)
		d.Connect(i, n, 0.5, 0.5)
		d.Connect(i+1, n, 0.5, 0.5)
		if rng.Intn(2) == 0 {
			d.Connect(i+rng.Intn(3), n, 0.5, 0.5)
		}
	}
	return d
}

func gpBenchConfig(iters, workers int) Config {
	cfg := DefaultConfig()
	cfg.MaxIters = iters
	cfg.MinIters = iters
	cfg.StopOverflow = 0
	cfg.PlateauIters = 0
	cfg.Workers = workers
	return cfg
}

// withGOMAXPROCS raises (or lowers) GOMAXPROCS to n until the test ends, so
// teams of up to n executors form whatever the host's core count.
func withGOMAXPROCS(tb testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// BenchmarkGPIterSerial measures one GP iteration with the parallel code
// paths pinned to a single worker; compare it against
// BenchmarkGPIterParallel. The repo benchmark reports the same ratio on its
// workloads as wirelength.par_speedup and density.par_speedup.
func BenchmarkGPIterSerial(b *testing.B) {
	b.ReportAllocs()
	p := mustNew(gpBenchDesign(1, 4000, 128), gpBenchConfig(b.N, 1))
	b.ResetTimer()
	p.Run(nil)
}

// BenchmarkGPIterParallel is the same workload at GOMAXPROCS workers; the
// placement it produces is bit-identical to the serial run.
func BenchmarkGPIterParallel(b *testing.B) {
	b.ReportAllocs()
	p := mustNew(gpBenchDesign(1, 4000, 128), gpBenchConfig(b.N, 0))
	b.ResetTimer()
	p.Run(nil)
}

// BenchmarkGPIter256 is one GP iteration at the scale where the per-rect
// geometry and the 2-D transforms dominate: 17k cells and ~42k fillers on a
// 256² grid (the place_large_calm shape), at GOMAXPROCS workers. It reports
// the share of gradient evaluations that reused the previous force sweep.
func BenchmarkGPIter256(b *testing.B) {
	b.ReportAllocs()
	p := mustNew(gpBenchDesign(1, 17000, 256), gpBenchConfig(b.N, 0))
	b.ResetTimer()
	p.Run(nil)
	b.ReportMetric(float64(p.forceReuses)/float64(p.evals), "reuse/eval")
}

// runGP places a synthetic design with the given worker count and returns
// the final cell centers and HPWL.
func runGP(t *testing.T, workers int) ([]geom.Point, float64) {
	t.Helper()
	d := smallDesign(3, 300, true)
	cfg := quickConfig()
	cfg.MaxIters = 80
	cfg.MinIters = 80
	cfg.StopOverflow = 0
	cfg.PlateauIters = 0
	cfg.Workers = workers
	p := mustNew(d, cfg)
	res := p.Run(nil)
	pos := make([]geom.Point, len(d.Cells))
	for i := range d.Cells {
		pos[i] = d.Cells[i].Rect().Center()
	}
	return pos, res.HPWL
}

// TestGPDeterminismAcrossWorkers is the acceptance gate for the parallel
// GP core: Workers=1 and Workers=4 (and an oversubscribed pool) must
// produce bit-identical final positions and HPWL. GOMAXPROCS is raised so
// the 4- and 16-executor shard structures form on any host.
func TestGPDeterminismAcrossWorkers(t *testing.T) {
	withGOMAXPROCS(t, 16)
	refPos, refHPWL := runGP(t, 1)
	for _, workers := range []int{2, 4, 16} {
		pos, hpwl := runGP(t, workers)
		if hpwl != refHPWL {
			t.Fatalf("workers=%d: HPWL %v, want %v (bit-exact)", workers, hpwl, refHPWL)
		}
		for i := range pos {
			if pos[i] != refPos[i] {
				t.Fatalf("workers=%d: cell %d at %v, want %v (bit-exact)", workers, i, pos[i], refPos[i])
			}
		}
	}
}

// TestEngineTakesOfferedExecutors: at every design size the engine runs on
// min(Workers, GOMAXPROCS) executors of one team that all its kernels
// share, really hands stages to them, and still places every cell where the
// serial engine does, bit for bit.
func TestEngineTakesOfferedExecutors(t *testing.T) {
	withGOMAXPROCS(t, 4)
	for _, size := range []struct {
		cells int
		side  float64
	}{{300, 64}, {4000, 128}, {17000, 256}} {
		run := func(workers int) []geom.Point {
			d := gpBenchDesign(1, size.cells, size.side)
			p := mustNew(d, gpBenchConfig(6, workers))
			if p.Workers() != workers || p.wl.Team() != p.team || p.g.Team() != p.team || p.opt.Team() != p.team {
				t.Fatalf("%d cells, Workers=%d: engine runs on %d executors, kernels not all on its team",
					size.cells, workers, p.Workers())
			}
			p.Run(nil)
			if sharded := p.team.Handoffs() > 0; sharded != (workers > 1) {
				t.Fatalf("%d cells, Workers=%d: helpers ran %d shards", size.cells, workers, p.team.Handoffs())
			}
			pos := make([]geom.Point, len(d.Cells))
			for i := range d.Cells {
				pos[i] = d.Cells[i].Rect().Center()
			}
			return pos
		}
		ref := run(1)
		for i, q := range run(3) {
			if q != ref[i] {
				t.Fatalf("%d cells, Workers=3: cell %d at %v, want %v (bit-exact)", size.cells, i, q, ref[i])
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which the team's caller runs every shard itself: the helpers must run
// alongside it for the hand-off to be measured. It warms f up with as
// many runs as it measures — long enough for the runtime's per-thread
// caches behind a blocking wake-up to fill — and, like
// testing.AllocsPerRun, reports whole allocations per run.
func allocsPerRun(runs int, f func()) uint64 {
	for i := 0; i < runs; i++ {
		f()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs)
}

// TestGPStepZeroAlloc guards the steady-state Nesterov iteration: a full
// eval (wirelength gradient, rasterization, spectral solve, force sweep),
// an eval that carries the wirelength gradient and reuses the forces, plus
// the overflow probe, the exact HPWL and the optimizer update allocates
// nothing — serially, and on a started four-executor team whose
// helpers really run shards.
func TestGPStepZeroAlloc(t *testing.T) {
	withGOMAXPROCS(t, 4)
	for _, workers := range []int{1, 4} {
		d := smallDesign(5, 200, false)
		cfg := quickConfig()
		cfg.Workers = workers
		p := mustNew(d, cfg)
		p.team.Start()
		p.overflow = 1
		p.updateGamma()
		p.ctl.lambda = p.initLambda()
		p.opt.Step(p.projectFn) // warm up
		reuses, carries, handoffs := p.forceReuses, p.wlCarries, p.team.Handoffs()
		n := allocsPerRun(10, func() {
			p.overflow = p.computeOverflow()
			p.wl.HPWLAtOrigins()
			p.opt.Step(p.projectFn)
		})
		p.team.Stop()
		if n != 0 {
			t.Errorf("workers=%d: steady-state GP iteration allocates %v per run, want 0", workers, n)
		}
		if p.forceReuses == reuses {
			t.Errorf("workers=%d: the measured iterations never took the force-reuse path", workers)
		}
		if p.wlCarries == carries {
			t.Errorf("workers=%d: the measured iterations never carried the wirelength gradient", workers)
		}
		if sharded := p.team.Handoffs() > handoffs; sharded != (workers > 1) {
			t.Errorf("workers=%d: helpers ran %d shards during the measured iterations",
				workers, p.team.Handoffs()-handoffs)
		}
	}
}

// TestGPUnderGOMAXPROCS1: with one scheduler thread a Workers=4 run must
// finish — no executor may spin while the one it waits for cannot run —
// and place every cell exactly where Workers=1 does.
func TestGPUnderGOMAXPROCS1(t *testing.T) {
	refPos, refHPWL := runGP(t, 1)
	withGOMAXPROCS(t, 1)
	pos, hpwl := runGP(t, 4)
	if hpwl != refHPWL {
		t.Fatalf("HPWL %v, want %v (bit-exact)", hpwl, refHPWL)
	}
	for i := range pos {
		if pos[i] != refPos[i] {
			t.Fatalf("cell %d at %v, want %v (bit-exact)", i, pos[i], refPos[i])
		}
	}
}

// TestTeamLeak: the engine's helper executors live exactly as long as a
// RunCtx — none survive a normal return, a canceled run, or a Placer that
// was built and dropped without running.
func TestTeamLeak(t *testing.T) {
	withGOMAXPROCS(t, 4)
	settle := func(what string, base int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cfg := quickConfig()
	cfg.Workers = 4
	cfg.MaxIters = 20
	base := runtime.NumGoroutine()

	p := mustNew(smallDesign(1, 200, false), cfg)
	if _, err := p.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if p.team.Handoffs() == 0 {
		t.Fatal("the helpers never ran a shard")
	}
	settle("after RunCtx", base)

	ctx, cancel := context.WithCancel(context.Background())
	p = mustNew(smallDesign(2, 200, false), cfg)
	if _, err := p.RunCtx(ctx, HookFunc(func(iter int, _ float64) bool {
		if iter == 3 {
			cancel()
		}
		return false
	})); !errors.Is(err, flow.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	settle("after a canceled RunCtx", base)

	mustNew(smallDesign(3, 200, false), cfg)
	runtime.GC()
	settle("after a Placer dropped without Run", base)
}

// evalRecord is what one gradient evaluation looked like from outside.
type evalRecord struct {
	grad      uint64 // FNV-1a over the gradient's float bits
	pos       uint64 // FNV-1a over the movable coordinates' float bits
	solveSkip bool   // Solve was satisfied by the fingerprint
	reused    bool   // the force gather was skipped
	carried   bool   // the wirelength gradient was carried over
}

// hashBits is FNV-1a over the float bits of the given slices.
func hashBits(vs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range vs {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// recordEvals re-seats the placer's optimizer on a wrapper of p.eval that
// logs every evaluation (the optimizer is otherwise configured as
// NewChecked does).
func recordEvals(p *Placer) *[]evalRecord {
	log := new([]evalRecord)
	nm := len(p.movable)
	off := nm + p.nFill
	opt := nesterov.New(append([]float64(nil), p.opt.Current()...), func(x, grad []float64) {
		skips, reuses, carries := p.g.SolveSkips(), p.forceReuses, p.wlCarries
		p.eval(x, grad)
		*log = append(*log, evalRecord{
			grad: hashBits(grad), pos: hashBits(x[:nm], x[off:off+nm]),
			solveSkip: p.g.SolveSkips() != skips,
			reused:    p.forceReuses != reuses,
			carried:   p.wlCarries != carries,
		})
	}, p.binBase/4)
	opt.MaxBacktrack = 1
	opt.SetTeam(p.team)
	p.opt = opt
	return log
}

// runPadded is the padded 90-iteration GP run the reuse tests share: the
// hook pads every cell at iterations 2, 40 and 60 (fillers retire, the
// momentum restarts, the wirelength carry is voided). It returns every
// eval's record, the index of the first eval after each padding round (the
// restart's), the placer and the run's result.
func runPadded(t *testing.T, noReuse bool, workers int) ([]evalRecord, []int, *Placer, *Result) {
	t.Helper()
	padAt := map[int]float64{2: 0.25, 40: 0.75, 60: 1} // iteration → PadW the hook sets on every cell
	d := smallDesign(6, 200, false)
	cfg := quickConfig()
	cfg.MaxIters, cfg.MinIters = 90, 90
	cfg.StopOverflow, cfg.PlateauIters = 0, 0
	cfg.Workers = workers
	p := mustNew(d, cfg)
	p.noReuse = noReuse
	log := recordEvals(p)
	var paddedEvals []int
	fillBefore := p.activeFill
	res := p.Run(HookFunc(func(iter int, overflow float64) bool {
		w, ok := padAt[iter]
		if !ok {
			return false
		}
		for i := range d.Cells {
			d.Cells[i].PadW = w
		}
		paddedEvals = append(paddedEvals, len(*log))
		return true
	}))
	if p.activeFill >= fillBefore {
		t.Fatal("padding retired no fillers")
	}
	if len(*log) != p.evals {
		t.Fatalf("%d evals logged, counter %d", len(*log), p.evals)
	}
	return *log, paddedEvals, p, res
}

// TestPaddedRunBitsPinned pins the padded run to the bits the engine gave
// before one position stage fed the wirelength origins and the deposit
// rects, the raster and the force gather shared footprints, and the WA
// pass read net-major pins: FNV-1a over every eval's gradient hash, over
// every iteration's HPWL — the three restart iterations', read at the
// reference point, included — and the final HPWL, at Workers 1 and 3. Like
// the goldens, the values hold on amd64 hosts whose math.Exp takes the FMA
// path (TestExpTakesTheFMAPath).
func TestPaddedRunBitsPinned(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const wantGrad, wantHPWL, wantFinal = 0x426b7496ba9fa20e, 0xa1902fbf134db643, 0xccf0f48a4a9ad987
	for _, workers := range []int{1, 3} {
		log, _, _, res := runPadded(t, false, workers)
		h := fnv.New64a()
		var b [8]byte
		for _, r := range log {
			binary.LittleEndian.PutUint64(b[:], r.grad)
			h.Write(b[:])
		}
		var hpwl []float64
		restarts := 0
		for _, it := range res.Trace {
			hpwl = append(hpwl, it.HPWL)
			if it.Padded {
				restarts++
			}
		}
		if len(log) != 183 || len(hpwl) != 90 || restarts != 3 {
			t.Fatalf("workers=%d: %d evals, %d iterations, %d restarts; want 183, 90, 3", workers, len(log), len(hpwl), restarts)
		}
		if got := h.Sum64(); got != wantGrad {
			t.Errorf("workers=%d: eval gradients hash %#x, want %#x", workers, got, uint64(wantGrad))
		}
		if got := hashBits(hpwl); got != wantHPWL {
			t.Errorf("workers=%d: per-iteration HPWL hash %#x, want %#x", workers, got, uint64(wantHPWL))
		}
		if got := hashBits([]float64{res.HPWL}); got != wantFinal {
			t.Errorf("workers=%d: final HPWL %v (hash %#x), want hash %#x", workers, res.HPWL, got, uint64(wantFinal))
		}
	}
}

// TestEvalForceReuseIsExact runs GP with and without the raw-force reuse and
// compares every gradient the oracle ever returned, bit for bit — on a run
// whose hook pads cells (fillers retire). It also pins where reuse must NOT
// fire even though Solve was satisfied by the fingerprint: the run's first
// eval, at the list initLambda solved, where the reuse key (the grid's
// solve count) is the only guard.
func TestEvalForceReuseIsExact(t *testing.T) {
	withGOMAXPROCS(t, 4) // so the Workers=3 run below shards three ways
	got, padded, p, _ := runPadded(t, false, 1)
	want, _, ref, _ := runPadded(t, true, 1)
	if ref.forceReuses != 0 {
		t.Fatalf("the reference run reused %d sweeps", ref.forceReuses)
	}
	if len(got) != len(want) {
		t.Fatalf("%d evals logged, reference %d", len(got), len(want))
	}
	guarded := 0
	for i := range got {
		if got[i].grad != want[i].grad {
			t.Fatalf("eval %d (reused=%v) gradient differs from the gather-always run", i, got[i].reused)
		}
		if got[i].reused && !got[i].solveSkip {
			t.Fatalf("eval %d reused forces although Solve ran", i)
		}
	}
	for _, i := range append([]int{0}, padded...) {
		if got[i].reused {
			t.Fatalf("eval %d reused forces across a padding change or from initLambda", i)
		}
		if got[i].solveSkip {
			guarded++ // initLambda had solved this list: only the key stopped the reuse
		}
	}
	if p.forceReuses < len(got)/4 {
		t.Errorf("only %d of %d evals reused the force sweep", p.forceReuses, len(got))
	}
	if guarded == 0 {
		t.Error("no eval hit the fingerprint with stale forces; the scenario lost its point")
	}

	// The counters are part of the determinism contract.
	gotW, _, pw, _ := runPadded(t, false, 3)
	for i := range gotW {
		if gotW[i].grad != got[i].grad || gotW[i].reused != got[i].reused {
			t.Fatalf("eval %d differs between Workers 1 and 3", i)
		}
	}
	if pw.evals != p.evals || pw.forceReuses != p.forceReuses || pw.g.RasterSkips() != p.g.RasterSkips() {
		t.Errorf("evals/force reuses/raster skips %d/%d/%d at Workers 3, %d/%d/%d at 1",
			pw.evals, pw.forceReuses, pw.g.RasterSkips(), p.evals, p.forceReuses, p.g.RasterSkips())
	}
}

// TestEvalCarriesWirelength pins the wirelength carry on the padded run:
// it fires on the accepted look-ahead point's re-evaluation (30 % of all
// evals here), only at movable coordinates bit-equal to those of the
// last eval that ran the WA pass, never on the run's first eval (after
// initLambda) or on a padding round's restart, and identically at every
// worker count.
func TestEvalCarriesWirelength(t *testing.T) {
	withGOMAXPROCS(t, 4) // so the Workers=3 run below shards three ways
	got, padded, p, _ := runPadded(t, false, 1)
	// 54 of 183 evals carry here (the step is accepted in 61 % of the
	// iterations); wherever the force sweep is reused, the point is the
	// previous eval's, so the carry fires there too.
	if p.wlCarries < len(got)/4 || p.wlCarries < p.forceReuses {
		t.Errorf("%d of %d evals carried the wirelength gradient, want >= 1/4 and >= the %d force reuses",
			p.wlCarries, len(got), p.forceReuses)
	}
	carries, last := 0, -1 // last: the latest eval that ran the WA pass
	for i, r := range got {
		if !r.carried {
			last = i
			continue
		}
		carries++
		if last < 0 || r.pos != got[last].pos {
			t.Fatalf("eval %d carried the gradient of eval %d at other coordinates", i, last)
		}
	}
	if carries != p.wlCarries {
		t.Fatalf("%d carried evals logged, counter %d", carries, p.wlCarries)
	}
	voided := 0
	for _, i := range append([]int{0}, padded...) {
		if got[i].carried {
			t.Fatalf("eval %d, the run's first or a restart, carried the wirelength gradient", i)
		}
		if i > 0 && got[i].pos == got[i-1].pos {
			voided++ // the restart re-evaluates the last point: only the round's void stops the carry
		}
	}
	if voided == 0 {
		t.Error("no padding round restarted at the last evaluated point; the scenario lost its point")
	}

	gotW, _, pw, _ := runPadded(t, false, 3)
	if len(gotW) != len(got) || pw.wlCarries != p.wlCarries {
		t.Fatalf("%d evals, %d carries at Workers 3; %d, %d at 1",
			len(gotW), pw.wlCarries, len(got), p.wlCarries)
	}
	for i := range gotW {
		if gotW[i] != got[i] {
			t.Fatalf("eval %d differs between Workers 1 and 3: %+v vs %+v", i, gotW[i], got[i])
		}
	}
}

// TestSolveSkipDuringRun is the integration check for the redundant-solve
// audit: initLambda solves the full deposit, and the first eval at the
// same position re-deposits the identical list — the engine must satisfy
// at least one of those solves from the fingerprint.
func TestSolveSkipDuringRun(t *testing.T) {
	d := smallDesign(5, 200, false)
	cfg := quickConfig()
	cfg.MaxIters = 10
	p := mustNew(d, cfg)
	p.Run(nil)
	if skips := p.Grid().SolveSkips(); skips < 1 {
		t.Errorf("run performed %d fingerprint solve skips, want >= 1", skips)
	}
	if solves := p.Grid().Solves(); solves < 10 {
		t.Errorf("run performed only %d real solves over 10 iters", solves)
	}
}

// TestPositionStageMatchesTheDesign: the position stage's origins and
// rects are what SetCenter and PaddedRect give, bit for bit — for padded
// and unpadded cells, fenced and not, at ±0 and fractional centers — and
// the probe's form leaves the design there; the projection's precomputed
// bounds clamp as the fence and half sizes do.
func TestPositionStageMatchesTheDesign(t *testing.T) {
	d := smallDesign(4, 300, true)
	d.Fences = []netlist.Fence{{Name: "f", Rect: geom.RectWH(5.5, 7.25, 20, 13)}}
	rng := rand.New(rand.NewSource(4))
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			d.Cells[i].W = []float64{0.75, 1, 1.3}[i%3]
			d.Cells[i].PadW = []float64{0, 0.25, 0.7}[i%3]
			d.Cells[i].Fence = i % 2
		}
	}
	p := mustNew(d, quickConfig())
	x := append([]float64(nil), p.opt.Current()...)
	nm := len(p.movable)
	off := nm + p.nFill
	for k := range p.movable {
		x[k] += rng.NormFloat64() * 20
		x[off+k] += rng.NormFloat64() * 20
	}
	x[0], x[off] = math.Copysign(0, -1), 0
	want := make([]geom.Rect, nm)
	ref := d.Clone()
	for k, ci := range p.movable {
		ref.Cells[ci].SetCenter(geom.Pt(x[k], x[off+k]))
		want[k] = ref.Cells[ci].PaddedRect()
	}
	p.resolve(x, nm+p.activeFill, true)
	ox, oy := p.wl.Origins()
	for k, ci := range p.movable {
		c, rc := &d.Cells[ci], &ref.Cells[ci]
		if p.rects[k] != want[k] || ox[ci] != rc.X || oy[ci] != rc.Y || c.X != rc.X || c.Y != rc.Y ||
			math.Signbit(ox[ci]) != math.Signbit(rc.X) {
			t.Fatalf("movable %d: rect %v origin (%v, %v) design (%v, %v); SetCenter+PaddedRect give %v at (%v, %v)",
				k, p.rects[k], ox[ci], oy[ci], c.X, c.Y, want[k], rc.X, rc.Y)
		}
	}
	y := append([]float64(nil), x...)
	p.project(y)
	for k, ci := range p.movable {
		c, b := &d.Cells[ci], d.FenceRect(ci)
		hw, hh := float64(c.W/2), float64(c.H/2)
		wx := geom.Clamp(x[k], b.Lo.X+hw, b.Hi.X-hw)
		wy := geom.Clamp(x[off+k], b.Lo.Y+hh, b.Hi.Y-hh)
		if y[k] != wx || y[off+k] != wy {
			t.Fatalf("movable %d projected to (%v, %v), want (%v, %v)", k, y[k], y[off+k], wx, wy)
		}
	}
}
