package cong

import (
	"context"
	"math"
	"slices"
	"time"

	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/par"
	"puffer/internal/rsmt"
)

// Params are the tunable strategy parameters of the congestion estimator.
// Several of them are explored by the Bayesian strategy search
// (Sec. III-C).
type Params struct {
	// PinPenalty is the routing demand added per pin in each direction to
	// capture local nets whose pins share one Gcell (Sec. III-A2).
	PinPenalty float64
	// ExpandRadius is how many Gcell rows/columns away the detour
	// expansion may push demand (Sec. III-A3).
	ExpandRadius int
	// TransferRatio is the fraction of a congested I-segment's demand
	// moved to the surrounding region.
	TransferRatio float64

	// Workers caps the estimator's data parallelism (0 = GOMAXPROCS).
	// Results never depend on it: nets and pins are sharded statically by
	// design size, per-shard accumulators merge in fixed shard order, and
	// Workers only bounds how many shards run concurrently — the same
	// any-worker-count bit-determinism contract the GP inner loop keeps
	// (DESIGN.md §3e).
	Workers int

	// Topo, when non-nil, memoizes RSMT construction across estimators
	// sharing one design (exploration trials on the same worker). It is
	// runtime wiring, not a strategy parameter: rsmt.Build is pure, so
	// attaching a memo never changes results, and the field is excluded
	// from strategy JSON and canonical config digests.
	Topo *rsmt.Memo `json:"-"`
}

// DefaultParams returns the hand-tuned defaults; the strategy exploration
// scheme replaces them with searched values.
func DefaultParams() Params {
	return Params{
		PinPenalty:    0.3,
		ExpandRadius:  3,
		TransferRatio: 0.5,
	}
}

// congestThreshold is the per-Gcell overflow above which an I-segment
// counts as congested: any positive overflow.
const congestThreshold = 0.0

// Seg is an I-shaped two-point segment of a net topology in Gcell
// coordinates. Horizontal segments have J0 == J1 and I0 <= I1; vertical
// segments have I0 == I1 and J0 <= J1. The endpoint Steiner tags drive the
// detour expansion: only Steiner endpoints need extra perpendicular demand
// when the segment is detoured, because cells (pin endpoints) can simply
// move (Sec. III-A3).
type Seg struct {
	Horizontal         bool
	I0, J0, I1, J1     int
	ASteiner, BSteiner bool
}

// Estimator produces congestion maps by the routing-detour-imitating
// estimation algorithm of Sec. III-A. Every Estimate is a from-scratch
// pass over the whole netlist (DESIGN.md §3b): between two consultations
// global placement moves almost every cell across a Gcell boundary, so
// there is nothing to carry over but buffers. An Estimator is reused for
// exactly that — the shard accumulators, RSMT builders, topology and
// segment slabs and overflow bitsets are sized once, after which a call
// allocates nothing of its own — and a reused estimator's result is
// bit-identical to a fresh one's.
type Estimator struct {
	d *netlist.Design
	M *Map
	P Params

	// Segs holds the I-shaped segments found during the last Estimate
	// call, in net order; the detour expansion ran over them in that
	// order.
	Segs []Seg

	// Trees holds the last RSMT topology per net; feature extraction
	// (GNN-inspired pin congestion) walks the same topology. The trees
	// are views into slabs the shards own and are valid until the next
	// Estimate call, which rebuilds them in place: read them before it,
	// or copy what must outlive it. (With P.Topo set they are the memo's
	// trees, shared and immutable.)
	Trees []rsmt.Tree

	shards   []shard
	ovH, ovV []uint64 // expansion overflow bitsets

	stats Stats

	// Telemetry (obs.go): nil — and therefore a no-op — until SetObs
	// attaches a recorder.
	rec *obs.Recorder
}

// shard is the private state of one static slice of the pins and nets: a
// demand accumulator per map layer, the I-segments of its nets, and what
// builds their topologies — the pin-position scratch, an RSMT builder, and
// the node and edge slabs Trees points into.
type shard struct {
	h, v, pins []float64
	segs       []Seg
	pts        []geom.Point
	topo       rsmt.Builder
	nodes      []rsmt.Node
	edges      []rsmt.Edge
}

// Stats reports what the estimator did: the call count, and the size and
// per-phase wall time of the most recent call. The pipeline snapshots it
// into StageStats.
type Stats struct {
	Calls              int
	LastNets, LastPins int
	// Topology construction + stamping, the per-Gcell shard merge, and
	// the detour expansion.
	LastTopoWall, LastMergeWall, LastExpandWall time.Duration
}

// Stats returns a snapshot of the estimator statistics.
func (e *Estimator) Stats() Stats { return e.stats }

// NewEstimator creates an estimator over a fresh W×H capacity map for d.
func NewEstimator(d *netlist.Design, w, h int, p Params) *Estimator {
	return &Estimator{d: d, M: NewMap(d, w, h), P: p}
}

// Estimate runs the full pipeline — topology generation, probabilistic
// demand, pin penalty, detour expansion — over the design's current
// placement and returns the resulting map.
func (e *Estimator) Estimate() *Map {
	// The background context cannot cancel, and estimation has no other
	// error source, so the error is impossible here.
	m, _ := e.EstimateCtx(context.Background())
	return m
}

// EstimateCtx is Estimate with cancellation: the sharded build stops
// scheduling work once ctx is done and returns an error wrapping
// flow.ErrCanceled. A canceled call leaves M, Segs and Trees partially
// written; the next call overwrites all of them.
func (e *Estimator) EstimateCtx(ctx context.Context) (*Map, error) {
	sp, ctx := obs.Start(ctx, e.rec, "cong.estimate")
	defer sp.End()
	e.stats.Calls++
	if err := e.build(ctx); err != nil {
		return nil, err
	}
	t0 := time.Now()
	e.expand()
	e.stats.LastExpandWall = time.Since(t0)
	return e.M, nil
}

// maxShards bounds the number of per-shard demand accumulators (three
// float64 grids each), so many-core hosts do not trade hundreds of
// megabytes for the parallel merge.
const maxShards = 16

// shardGrain is the minimum number of work items (pins or nets) per
// shard. Together with maxShards it fixes the shard count as a function of
// the design size alone — never of Params.Workers — so shard boundaries,
// and therefore the order every floating-point sum is merged in, are
// identical no matter how many goroutines execute the shards: results are
// bit-identical for ANY worker count.
const shardGrain = 192

// shardCount picks the deterministic static shard count for n items.
// Workers only bounds how many shards run concurrently (see the par calls
// in build), not how the work is partitioned.
func shardCount(n int) int {
	w := n / shardGrain
	if w > maxShards {
		w = maxShards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// build computes the pre-expansion demand: shard pins and nets statically,
// accumulate each shard's pin penalties and net stamps into its private
// grids, then merge per Gcell in fixed shard order into M. Segs is the
// shards' segment slabs concatenated in shard (= net) order.
func (e *Estimator) build(ctx context.Context) error {
	nNets, nPins := len(e.d.Nets), len(e.d.Pins)
	size := e.M.W * e.M.H
	if len(e.Trees) != nNets {
		e.Trees = make([]rsmt.Tree, nNets)
	}
	work := nNets
	if nPins > work {
		work = nPins
	}
	W := shardCount(work)
	if len(e.shards) != W {
		e.shards = make([]shard, W)
		for w := range e.shards {
			e.shards[w] = shard{
				h:    make([]float64, size),
				v:    make([]float64, size),
				pins: make([]float64, size),
			}
		}
	}

	// Parallel shards overlap the estimate span in time; Fork gives each a
	// fresh logical thread so trace viewers render them side by side.
	parent := obs.FromContext(ctx)
	tTopo := time.Now()
	err := par.ForErrN(ctx, e.P.Workers, W, func(w int) error {
		wsp := parent.Fork("cong.estimate.shard")
		wsp.SetArg("shard", w)
		defer wsp.End()
		sh := &e.shards[w]
		clear(sh.h)
		clear(sh.v)
		clear(sh.pins)
		sh.segs, sh.nodes, sh.edges = sh.segs[:0], sh.nodes[:0], sh.edges[:0]
		lo, hi := par.ShardRange(w, W, nPins)
		for p := lo; p < hi; p++ {
			i, j := e.M.GcellOf(e.d.PinPos(p))
			idx := e.M.Index(i, j)
			sh.pins[idx]++
			sh.h[idx] += e.P.PinPenalty
			sh.v[idx] += e.P.PinPenalty
		}
		lo, hi = par.ShardRange(w, W, nNets)
		for n := lo; n < hi; n++ {
			if (n-lo)%256 == 0 {
				if err := flow.Check(ctx); err != nil {
					return err
				}
			}
			e.stampNet(n, sh)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.stats.LastTopoWall = time.Since(tTopo)

	// Deterministic parallel merge: each worker owns a disjoint Gcell
	// range and sums the shard accumulators in fixed shard order, so the
	// result is independent of scheduling.
	tMerge := time.Now()
	par.ForN(e.P.Workers, W, func(w int) {
		lo, hi := par.ShardRange(w, W, size)
		for g := lo; g < hi; g++ {
			var h, v, pn float64
			for k := range e.shards {
				h += e.shards[k].h[g]
				v += e.shards[k].v[g]
				pn += e.shards[k].pins[g]
			}
			e.M.DmdH[g], e.M.DmdV[g], e.M.Pins[g] = h, v, pn
		}
	})
	e.Segs = e.Segs[:0]
	for k := range e.shards {
		e.Segs = append(e.Segs, e.shards[k].segs...)
	}
	e.stats.LastMergeWall = time.Since(tMerge)
	e.stats.LastNets, e.stats.LastPins = nNets, nPins
	return nil
}

// stampNet builds net n's RSMT topology from the current pin positions —
// into sh's slabs, or through the memo when one is attached — and deposits
// the demand of every I- and L-shaped edge into sh, recording the
// I-segments the detour expansion consumes. It writes only Trees[n] and
// sh, so distinct shards stamp in parallel.
func (e *Estimator) stampNet(n int, sh *shard) {
	net := &e.d.Nets[n]
	e.Trees[n] = rsmt.Tree{}
	if len(net.Pins) < 2 {
		return
	}
	sh.pts = sh.pts[:0]
	for _, pid := range net.Pins {
		sh.pts = append(sh.pts, e.d.PinPos(pid))
	}
	var tree rsmt.Tree
	if e.P.Topo != nil {
		tree = e.P.Topo.Build(sh.pts)
	} else {
		n0, e0 := len(sh.nodes), len(sh.edges)
		sh.nodes, sh.edges = sh.topo.Append(sh.nodes, sh.edges, sh.pts)
		// Clipped views: an append through Trees[n] must not reach the
		// next net's nodes.
		tree = rsmt.Tree{Nodes: slices.Clip(sh.nodes[n0:]), Edges: slices.Clip(sh.edges[e0:])}
	}
	e.Trees[n] = tree

	for _, edge := range tree.Edges {
		a, b := tree.Nodes[edge.A], tree.Nodes[edge.B]
		ai, aj := e.M.GcellOf(a.P)
		bi, bj := e.M.GcellOf(b.P)
		switch {
		case ai == bi && aj == bj:
			// Both endpoints in one Gcell: covered by the pin penalty.
		case aj == bj: // horizontal I-shape
			i0, i1 := ai, bi
			as, bs := a.Steiner, b.Steiner
			if i0 > i1 {
				i0, i1 = i1, i0
				as, bs = bs, as
			}
			for i := i0; i <= i1; i++ {
				sh.h[e.M.Index(i, aj)]++
			}
			sh.segs = append(sh.segs, Seg{Horizontal: true, I0: i0, J0: aj, I1: i1, J1: aj, ASteiner: as, BSteiner: bs})
		case ai == bi: // vertical I-shape
			j0, j1 := aj, bj
			as, bs := a.Steiner, b.Steiner
			if j0 > j1 {
				j0, j1 = j1, j0
				as, bs = bs, as
			}
			for jj := j0; jj <= j1; jj++ {
				sh.v[e.M.Index(ai, jj)]++
			}
			sh.segs = append(sh.segs, Seg{Horizontal: false, I0: ai, J0: j0, I1: ai, J1: j1, ASteiner: as, BSteiner: bs})
		default: // L-shape: average demand over the bounding box
			i0, i1 := ai, bi
			if i0 > i1 {
				i0, i1 = i1, i0
			}
			j0, j1 := aj, bj
			if j0 > j1 {
				j0, j1 = j1, j0
			}
			w := float64(i1 - i0 + 1)
			h := float64(j1 - j0 + 1)
			dh := 1 / h // total horizontal wire w spread over w·h Gcells
			dv := 1 / w
			for jj := j0; jj <= j1; jj++ {
				row := jj * e.M.W
				for i := i0; i <= i1; i++ {
					sh.h[row+i] += dh
					sh.v[row+i] += dv
				}
			}
		}
	}
}

// expand performs the detour-imitating demand expansion (Sec. III-A3):
// congested I-shaped segments transfer part of their demand to a nearby
// parallel row/column with routing slack; Steiner endpoints additionally
// pay perpendicular connection demand, pin endpoints do not (the cell can
// move instead — that is the "clustered cell spreading" the estimator
// imitates).
//
// The congested-span test is served by per-direction overflow bitsets that
// are rebuilt once per call and kept current through every demand transfer,
// so uncongested segments — the common case — cost a word scan instead of
// a float pass over their span. The transfer semantics are unchanged.
func (e *Estimator) expand() {
	if e.P.ExpandRadius <= 0 || e.P.TransferRatio <= 0 {
		return
	}
	e.buildOverflowBits()
	for _, s := range e.Segs {
		if s.Horizontal {
			e.expandH(s)
		} else {
			e.expandV(s)
		}
	}
}

// buildOverflowBits recomputes the overflow bitsets from the current
// demand: bit g of ovH/ovV is set iff the Gcell's directional overflow
// exceeds the congestion threshold.
func (e *Estimator) buildOverflowBits() {
	words := (e.M.W*e.M.H + 63) / 64
	if cap(e.ovH) < words {
		e.ovH = make([]uint64, words)
		e.ovV = make([]uint64, words)
	}
	e.ovH = e.ovH[:words]
	e.ovV = e.ovV[:words]
	for i := range e.ovH {
		e.ovH[i] = 0
		e.ovV[i] = 0
	}
	for g := range e.M.DmdH {
		if e.M.OverflowH(g) > congestThreshold {
			e.ovH[g>>6] |= 1 << (uint(g) & 63)
		}
		if e.M.OverflowV(g) > congestThreshold {
			e.ovV[g>>6] |= 1 << (uint(g) & 63)
		}
	}
}

// anyBitInRange reports whether any bit in the inclusive flat index range
// [lo, hi] of bits is set.
func anyBitInRange(bits []uint64, lo, hi int) bool {
	if lo > hi {
		lo, hi = hi, lo
	}
	w0, w1 := lo>>6, hi>>6
	if w0 == w1 {
		mask := (^uint64(0) << (uint(lo) & 63)) & (^uint64(0) >> (63 - (uint(hi) & 63)))
		return bits[w0]&mask != 0
	}
	if bits[w0]&(^uint64(0)<<(uint(lo)&63)) != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if bits[w] != 0 {
			return true
		}
	}
	return bits[w1]&(^uint64(0)>>(63-(uint(hi)&63))) != 0
}

// addDmdH mutates horizontal demand during expansion, keeping the overflow
// bitset in sync.
func (e *Estimator) addDmdH(idx int, delta float64) {
	e.M.DmdH[idx] += delta
	bit := uint64(1) << (uint(idx) & 63)
	if e.M.OverflowH(idx) > congestThreshold {
		e.ovH[idx>>6] |= bit
	} else {
		e.ovH[idx>>6] &^= bit
	}
}

// addDmdV is addDmdH for the vertical direction.
func (e *Estimator) addDmdV(idx int, delta float64) {
	e.M.DmdV[idx] += delta
	bit := uint64(1) << (uint(idx) & 63)
	if e.M.OverflowV(idx) > congestThreshold {
		e.ovV[idx>>6] |= bit
	} else {
		e.ovV[idx>>6] &^= bit
	}
}

func (e *Estimator) expandH(s Seg) {
	m := e.M
	j := s.J0
	// Congested if any Gcell on the span overflows: a horizontal span is
	// contiguous in flat indices, so one word scan answers it.
	if !anyBitInRange(e.ovH, m.Index(s.I0, j), m.Index(s.I1, j)) {
		return
	}
	// Best alternative row: maximum total slack over the span.
	bestJ, bestSlack := -1, 0.0
	for dj := -e.P.ExpandRadius; dj <= e.P.ExpandRadius; dj++ {
		jj := j + dj
		if dj == 0 || jj < 0 || jj >= m.H {
			continue
		}
		slack := 0.0
		for i := s.I0; i <= s.I1; i++ {
			idx := m.Index(i, jj)
			slack += math.Max(0, m.CapH[idx]-m.DmdH[idx])
		}
		if slack > bestSlack {
			bestSlack = slack
			bestJ = jj
		}
	}
	if bestJ < 0 {
		return
	}
	delta := e.P.TransferRatio
	for i := s.I0; i <= s.I1; i++ {
		e.addDmdH(m.Index(i, j), -delta)
		e.addDmdH(m.Index(i, bestJ), delta)
	}
	// Perpendicular connection demand at Steiner endpoints only.
	lo, hi := j, bestJ
	if lo > hi {
		lo, hi = hi, lo
	}
	if s.ASteiner {
		for jj := lo; jj <= hi; jj++ {
			e.addDmdV(m.Index(s.I0, jj), delta)
		}
	}
	if s.BSteiner {
		for jj := lo; jj <= hi; jj++ {
			e.addDmdV(m.Index(s.I1, jj), delta)
		}
	}
}

func (e *Estimator) expandV(s Seg) {
	m := e.M
	i := s.I0
	congested := false
	for j := s.J0; j <= s.J1; j++ {
		idx := m.Index(i, j)
		if e.ovV[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			congested = true
			break
		}
	}
	if !congested {
		return
	}
	bestI, bestSlack := -1, 0.0
	for di := -e.P.ExpandRadius; di <= e.P.ExpandRadius; di++ {
		ii := i + di
		if di == 0 || ii < 0 || ii >= m.W {
			continue
		}
		slack := 0.0
		for j := s.J0; j <= s.J1; j++ {
			idx := m.Index(ii, j)
			slack += math.Max(0, m.CapV[idx]-m.DmdV[idx])
		}
		if slack > bestSlack {
			bestSlack = slack
			bestI = ii
		}
	}
	if bestI < 0 {
		return
	}
	delta := e.P.TransferRatio
	for j := s.J0; j <= s.J1; j++ {
		e.addDmdV(m.Index(i, j), -delta)
		e.addDmdV(m.Index(bestI, j), delta)
	}
	lo, hi := i, bestI
	if lo > hi {
		lo, hi = hi, lo
	}
	if s.ASteiner {
		for ii := lo; ii <= hi; ii++ {
			e.addDmdH(m.Index(ii, s.J0), delta)
		}
	}
	if s.BSteiner {
		for ii := lo; ii <= hi; ii++ {
			e.addDmdH(m.Index(ii, s.J1), delta)
		}
	}
}
