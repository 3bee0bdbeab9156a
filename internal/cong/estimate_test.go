package cong

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/rsmt"
)

// randomDesign builds a reproducible random design with movable cells and
// small multi-pin nets, the workload shape of the in-loop estimator.
func randomDesign(rng *rand.Rand, nCells, nNets int) *netlist.Design {
	d := testDesign()
	for c := 0; c < nCells; c++ {
		d.AddCell(netlist.Cell{
			W: 0.8, H: 0.8,
			X: rng.Float64() * 31,
			Y: rng.Float64() * 31,
		})
	}
	for n := 0; n < nNets; n++ {
		net := d.AddNet("n", 1)
		deg := 2 + rng.Intn(3)
		for k := 0; k < deg; k++ {
			d.Connect(rng.Intn(nCells), net, 0.4, 0.4)
		}
	}
	return d
}

// moveSomeCells displaces a fraction of the cells by up to two Gcells,
// clamped to the region — the "<10% of nets move per call" workload.
func moveSomeCells(rng *rand.Rand, d *netlist.Design, frac float64) {
	for ci := range d.Cells {
		if rng.Float64() >= frac {
			continue
		}
		c := &d.Cells[ci]
		c.X = math.Min(31, math.Max(0, c.X+(rng.Float64()-0.5)*16))
		c.Y = math.Min(31, math.Max(0, c.Y+(rng.Float64()-0.5)*16))
	}
}

// chokedEstimator builds an estimator with one Gcell row starved of
// horizontal capacity, so the detour expansion actually fires.
func chokedEstimator(d *netlist.Design, w, h int, p Params) *Estimator {
	e := NewEstimator(d, w, h, p)
	for i := 0; i < w; i++ {
		e.M.CapH[e.M.Index(i, 3)] = 0.2
	}
	return e
}

// requireSameDemand fails unless the two maps hold bit-identical demand
// and pin counts.
func requireSameDemand(t *testing.T, got, want *Map) {
	t.Helper()
	for i := range want.DmdH {
		if got.DmdH[i] != want.DmdH[i] || got.DmdV[i] != want.DmdV[i] || got.Pins[i] != want.Pins[i] {
			t.Fatalf("Gcell %d: H %v vs %v, V %v vs %v, pins %v vs %v", i,
				got.DmdH[i], want.DmdH[i], got.DmdV[i], want.DmdV[i], got.Pins[i], want.Pins[i])
		}
	}
}

// requireSameEstimate fails unless got's published state — demand, pin
// counts, I-segments and topologies — is bit-identical to want's.
func requireSameEstimate(t *testing.T, got, want *Estimator) {
	t.Helper()
	requireSameDemand(t, got.M, want.M)
	if !reflect.DeepEqual(got.Segs, want.Segs) {
		t.Fatalf("Segs differ: %d vs %d segments", len(got.Segs), len(want.Segs))
	}
	if !reflect.DeepEqual(got.Trees, want.Trees) {
		t.Fatalf("Trees differ (%d vs %d nets)", len(got.Trees), len(want.Trees))
	}
}

// cancelAfter is a context that becomes done on its n-th Done call: the
// estimator polls Done at every shard and net-batch boundary, so the
// cancel lands deterministically in the middle of a build.
type cancelAfter struct {
	context.Context
	left int
	done chan struct{}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.left--; c.left == 0 {
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestReusedEstimatorEqualsFresh is the estimator's reuse contract: it
// carries nothing but buffers from call to call, so whatever happened
// since the previous Estimate — cells moved, parameters changed, the
// design grew, a call was abandoned half-way — the next result is
// bit-identical to a brand-new estimator's, detour expansion included.
func TestReusedEstimatorEqualsFresh(t *testing.T) {
	type env struct {
		rng *rand.Rand
		d   *netlist.Design
		e   *Estimator
	}
	move := func(frac float64) func(*testing.T, *env) {
		return func(_ *testing.T, v *env) { moveSomeCells(v.rng, v.d, frac) }
	}
	steps := []struct {
		name string
		do   func(*testing.T, *env)
	}{
		{"first call", func(*testing.T, *env) {}},
		{"move 1%", move(0.01)},
		{"move 10%", move(0.10)},
		{"move 100%", move(1)},
		{"sub-Gcell nudge", func(_ *testing.T, v *env) {
			for ci := range v.d.Cells {
				v.d.Cells[ci].X += 0.01 * v.rng.Float64()
			}
		}},
		{"params change", func(_ *testing.T, v *env) {
			v.e.P.PinPenalty = 0.45
			v.e.P.ExpandRadius = 2
		}},
		{"nets and pins appended", func(_ *testing.T, v *env) {
			nc := len(v.d.Cells)
			a := v.d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 5, Y: 14})
			b := v.d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 25, Y: 14})
			n := v.d.AddNet("late", 1)
			v.d.Connect(a, n, 0.4, 0.4)
			v.d.Connect(b, n, 0.4, 0.4)
			v.d.Connect(v.rng.Intn(nc), n, 0.4, 0.4)
		}},
		{"cancelled mid-build, then retried", func(t *testing.T, v *env) {
			moveSomeCells(v.rng, v.d, 0.5)
			// One poll by the shard scheduler, then one per shard: the
			// cancel lands inside the last shard.
			polls := 1 + shardCount(len(v.d.Pins))
			ctx := &cancelAfter{Context: context.Background(), left: polls, done: make(chan struct{})}
			if _, err := v.e.EstimateCtx(ctx); !errors.Is(err, flow.ErrCanceled) {
				t.Fatalf("EstimateCtx = %v, want a cancel", err)
			}
		}},
	}
	for _, size := range []struct{ cells, nets, grid int }{{80, 120, 8}, {400, 700, 16}} {
		t.Run(fmt.Sprint(size.nets, " nets"), func(t *testing.T) {
			v := &env{rng: rand.New(rand.NewSource(int64(size.nets)))}
			v.d = randomDesign(v.rng, size.cells, size.nets)
			p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: 1}
			v.e = chokedEstimator(v.d, size.grid, size.grid, p)
			for _, st := range steps {
				st.do(t, v)
				v.e.Estimate()
				fresh := chokedEstimator(v.d, size.grid, size.grid, v.e.P)
				fresh.Estimate()
				t.Run(st.name, func(t *testing.T) { requireSameEstimate(t, v.e, fresh) })
			}
			noExp := chokedEstimator(v.d, size.grid, size.grid, Params{PinPenalty: v.e.P.PinPenalty})
			if reflect.DeepEqual(noExp.Estimate().DmdH, v.e.M.DmdH) {
				t.Error("the detour expansion did not fire; the comparison proves too little")
			}
		})
	}
}

// TestReusedEqualsFreshWithExpansionParallel: with the detour expansion
// active and two workers, an estimator that has been through a move
// sequence publishes a map bit-identical to a fresh one's.
func TestReusedEqualsFreshWithExpansionParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDesign(rng, 60, 90)
	p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: 2}
	// The same row is choked on both maps so the expansion actually fires.
	reused := chokedEstimator(d, 8, 8, p)
	fresh := chokedEstimator(d, 8, 8, p)
	for step := 0; step < 6; step++ {
		moveSomeCells(rng, d, 0.1)
		reused.Estimate()
	}
	requireSameDemand(t, reused.Estimate(), fresh.Estimate())
}

// TestEstimateDeterministicAcrossRuns: the same design, params, and move
// sequence produce bit-identical maps on every run — the parallel phases
// merge in static shard order.
func TestEstimateDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(3))
		d := randomDesign(rng, 70, 100)
		e := NewEstimator(d, 8, 8, Params{PinPenalty: 0.15, ExpandRadius: 2, TransferRatio: 0.4, Workers: 4})
		var out []float64
		for step := 0; step < 8; step++ {
			moveSomeCells(rng, d, 0.1)
			m := e.Estimate()
			out = append(out, m.DmdH...)
			out = append(out, m.DmdV...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSubGcellMoveIsClean: demand is keyed on Gcell-quantized positions,
// so motion that stays inside a Gcell leaves a two-pin net's map as it was.
func TestSubGcellMoveIsClean(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, DefaultParams())
	before := NewEstimator(d, 8, 8, DefaultParams())
	before.Estimate()
	d.Cells[0].X += 0.5 // Gcells are 4 units wide; stays in place
	requireSameDemand(t, e.Estimate(), before.M)
}

// TestParamsChangeTakesEffect: parameters mutated between calls take
// effect on the next estimate.
func TestParamsChangeTakesEffect(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, Params{PinPenalty: 0.1})
	e.Estimate()
	e.P.PinPenalty = 0.4
	m := e.Estimate()
	idx := m.Index(0, 2) // pin Gcell of the pair design
	if m.Pins[idx] == 0 {
		t.Fatal("pin missing from expected Gcell")
	}
	wantH := 1 + 0.4 // segment demand + new pin penalty
	if math.Abs(m.DmdH[idx]-wantH) > 1e-12 {
		t.Errorf("DmdH = %v, want %v after param change", m.DmdH[idx], wantH)
	}
}

// TestDesignGrowthIsStamped: nets and cells added after the first
// estimate are stamped by the next one.
func TestDesignGrowthIsStamped(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, Params{})
	e.Estimate()
	a := d.AddCell(netlist.Cell{W: 1, H: 1, X: 5, Y: 20})
	b := d.AddCell(netlist.Cell{W: 1, H: 1, X: 25, Y: 20})
	n := d.AddNet("late", 1)
	d.Connect(a, n, 0.5, 0.5)
	d.Connect(b, n, 0.5, 0.5)
	m := e.Estimate()
	if got := m.DmdH[m.Index(3, 5)]; got != 1 {
		t.Errorf("new net not stamped: DmdH = %v, want 1", got)
	}
}

// TestEstimateCtxCancel: a canceled context aborts the estimate, and the
// next uncanceled call is unaffected by it.
func TestEstimateCtxCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomDesign(rng, 40, 60)
	e := NewEstimator(d, 8, 8, Params{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EstimateCtx(ctx); err == nil {
		t.Fatal("EstimateCtx ignored a canceled context")
	}
	m, err := e.EstimateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameDemand(t, m, NewEstimator(d, 8, 8, Params{Workers: 2}).Estimate())
}

// --- Detour-expansion clipping at the remaining grid borders (the bottom
// edge and left column are covered in stats_test.go). ---

func chokedEstimate(t *testing.T, e *Estimator) {
	t.Helper()
	e.Estimate()
	for idx := range e.M.DmdH {
		if e.M.DmdH[idx] < -1e-9 || e.M.DmdV[idx] < -1e-9 {
			t.Fatalf("negative demand at %d: H=%v V=%v", idx, e.M.DmdH[idx], e.M.DmdV[idx])
		}
	}
}

// TestExpansionTopEdgeClipping: a congested horizontal segment on the top
// row with ExpandRadius far past H-1 must clip its row search at the grid.
func TestExpansionTopEdgeClipping(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 1, Y: 31})
	b := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 29, Y: 31})
	n := d.AddNet("top", 1)
	d.Connect(a, n, 0.4, 0.4)
	d.Connect(b, n, 0.4, 0.4)
	e := NewEstimator(d, 8, 8, Params{ExpandRadius: 100, TransferRatio: 0.5})
	for i := 0; i < e.M.W; i++ {
		e.M.CapH[e.M.Index(i, e.M.H-1)] = 0.01
	}
	chokedEstimate(t, e)
	// The transfer conserves horizontal demand.
	total := 0.0
	for _, v := range e.M.DmdH {
		total += v
	}
	if math.Abs(total-8) > 1e-9 { // pins in Gcells 0 and 7: 8-Gcell span
		t.Errorf("horizontal demand not conserved: %v, want 8", total)
	}
}

// TestExpansionRightEdgeClipping: a congested vertical segment on the last
// column with a huge radius must clip its column search at W-1.
func TestExpansionRightEdgeClipping(t *testing.T) {
	d := testDesign()
	a := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 31, Y: 1})
	b := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 31, Y: 29})
	c := d.AddCell(netlist.Cell{W: 0.8, H: 0.8, X: 15, Y: 15})
	n := d.AddNet("right", 1)
	d.Connect(a, n, 0.4, 0.4)
	d.Connect(b, n, 0.4, 0.4)
	d.Connect(c, n, 0.4, 0.4)
	e := NewEstimator(d, 8, 8, Params{ExpandRadius: 100, TransferRatio: 0.9})
	for j := 0; j < e.M.H; j++ {
		e.M.CapV[e.M.Index(e.M.W-1, j)] = 0.01
	}
	chokedEstimate(t, e)
}

// TestExpansionRadiusLargerThanGrid: every row choked, radius far past the
// grid in both directions; the search must stay in bounds and, with no
// slack anywhere, move nothing.
func TestExpansionRadiusLargerThanGrid(t *testing.T) {
	d := horizontalPairDesign()
	e := NewEstimator(d, 8, 8, Params{ExpandRadius: 1000, TransferRatio: 0.5})
	for idx := range e.M.CapH {
		e.M.CapH[idx] = 0.01
	}
	before := make([]float64, len(e.M.DmdH))
	chokedEstimate(t, e)
	copy(before, e.M.DmdH)
	// Re-estimate: same demand (no slack found, nothing transferred).
	e.Estimate()
	for i := range before {
		if e.M.DmdH[i] != before[i] {
			t.Fatalf("demand changed between identical estimates at %d", i)
		}
	}
}

// TestEstimateDeterministicAcrossWorkers: the estimator's results are
// bit-identical no matter how many workers execute them — the shard count
// depends on the design size alone, and Workers only caps concurrency.
// This is the estimator's half of the any-worker-count contract that
// Session.Apply (internal/eco) relies on: an interactive delta re-placed at
// Workers=1 and at Workers=16 must land on the same bits. The design is
// sized so the shard count actually exceeds one.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		rng := rand.New(rand.NewSource(17))
		d := randomDesign(rng, 400, 700)
		p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: workers}
		e := NewEstimator(d, 16, 16, p)
		var out []float64
		for step := 0; step < 10; step++ {
			moveSomeCells(rng, d, 0.06)
			m := e.Estimate()
			out = append(out, m.DmdH...)
			out = append(out, m.DmdV...)
			out = append(out, m.Pins...)
		}
		return out
	}
	if shardCount(700) <= 1 {
		t.Fatal("test design too small: the build runs in one shard, proving nothing")
	}
	ref := run(1)
	for _, w := range []int{3, 8} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("Workers=%d diverges from Workers=1 at %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestEstimateSteadyStateAllocs: a reused estimator owns all its buffers,
// the RSMT builders and the topology slabs included. A serial Estimate
// allocates a handful of closures whatever the net count — on the path
// every flow takes (no memo, cells moving between calls, every moved net's
// topology rebuilt) and with every topology served by a warm rsmt.Memo.
func TestEstimateSteadyStateAllocs(t *testing.T) {
	for _, size := range []struct{ cells, nets int }{{400, 700}, {1600, 2800}} {
		for _, memo := range []bool{false, true} {
			rng := rand.New(rand.NewSource(23))
			d := randomDesign(rng, size.cells, size.nets)
			p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: 1}
			if memo {
				p.Topo = rsmt.NewMemo(0)
			}
			e := NewEstimator(d, 16, 16, p)
			// Size the buffers. Without a memo the slabs then have seen
			// three placements' worth of Steiner points.
			for warm := 0; warm < 3; warm++ {
				e.Estimate()
				if !memo {
					moveSomeCells(rng, d, 0.1)
				}
			}
			got := testing.AllocsPerRun(5, func() {
				if !memo { // a memo only ever hits on an unchanged placement
					moveSomeCells(rng, d, 0.1)
				}
				e.Estimate()
			})
			if got > 4 {
				t.Errorf("%d nets, memo=%v: steady-state Estimate allocates %v objects, want <= 4", size.nets, memo, got)
			}
		}
	}
}

// copyTrees deep-copies topologies out of an estimator's slabs.
func copyTrees(trees []rsmt.Tree) []rsmt.Tree {
	out := make([]rsmt.Tree, len(trees))
	for n, tr := range trees {
		out[n] = rsmt.Tree{Nodes: append([]rsmt.Node(nil), tr.Nodes...), Edges: append([]rsmt.Edge(nil), tr.Edges...)}
	}
	return out
}

// TestTreesValidUntilNextEstimate pins the lifetime of Estimator.Trees:
// they are views into slabs the next Estimate rebuilds in place. Read
// after Estimate k they are the topologies of placement k — a fresh
// estimator's, and rsmt.Build's — and a deep copy taken then still is
// after Estimate k+1 has reused the slabs for placement k+1.
func TestTreesValidUntilNextEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := randomDesign(rng, 400, 700)
	p := Params{PinPenalty: 0.2, ExpandRadius: 3, TransferRatio: 0.5, Workers: 2}
	e := NewEstimator(d, 16, 16, p)
	freshTrees := func() []rsmt.Tree {
		f := NewEstimator(d, 16, 16, p)
		f.Estimate()
		return f.Trees
	}
	var prev, prevWant []rsmt.Tree
	for k := 0; k < 4; k++ {
		moveSomeCells(rng, d, 0.3)
		e.Estimate()
		want := freshTrees()
		if !reflect.DeepEqual(e.Trees, want) {
			t.Fatalf("estimate %d: Trees differ from a fresh estimator's", k)
		}
		for n := range d.Nets {
			var pts []geom.Point
			for _, pid := range d.Nets[n].Pins {
				pts = append(pts, d.PinPos(pid))
			}
			if len(pts) >= 2 && !reflect.DeepEqual(e.Trees[n], rsmt.Build(pts)) {
				t.Fatalf("estimate %d: Trees[%d] differs from rsmt.Build", k, n)
			}
		}
		if k > 0 && !reflect.DeepEqual(prev, prevWant) {
			t.Fatalf("estimate %d corrupted a deep copy of estimate %d's trees", k, k-1)
		}
		prev, prevWant = copyTrees(e.Trees), want
	}
}
