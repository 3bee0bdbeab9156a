// Package router implements the evaluation global router that stands in
// for the commercial global router the paper uses to judge placements
// (Sec. IV). Each net is decomposed into two-point segments by the RSMT
// topology, every segment is routed with congestion-aware A* (bend
// penalty, admissible Manhattan heuristic), and a PathFinder-style
// negotiation loop rips up and reroutes segments that cross overflowed
// Gcells with growing history costs. The router reports the same metrics
// as Table II: directional overflow ratios (HOF/VOF) and routed
// wirelength.
package router

import (
	"context"
	"math"

	"puffer/internal/cong"
	"puffer/internal/flow"
	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/par"
	"puffer/internal/rsmt"
)

// Config controls the router.
type Config struct {
	// GridW/GridH are the Gcell grid dimensions; zero selects ~2 rows of
	// cells per Gcell automatically.
	GridW, GridH int
	// MaxRipup is the number of negotiation iterations after the initial
	// routing pass.
	MaxRipup int
	// HistoryGain is the history-cost increment per overflowed Gcell per
	// negotiation round.
	HistoryGain float64
	// CongestWeight scales the present-congestion penalty.
	CongestWeight float64
	// BendPenalty is the extra cost per direction change, in Gcell units.
	BendPenalty float64
	// WindowMargin expands each segment's search window beyond its
	// bounding box, in Gcells.
	WindowMargin int
	// PinCost is the local routing demand (tracks, per direction) each
	// pin consumes in its Gcell for access/escape routing and local nets.
	// This is what makes over-packed cell clusters unroutable even when
	// the global wirelength is short.
	PinCost float64
	// PatternFirst tries the two L-shaped routes before invoking A*: if
	// either introduces no overflow it is taken directly. This is the
	// classic pattern-routing fast path; quality is unchanged where the
	// chip has slack and A* still handles everything congested.
	PatternFirst bool
	// Workers caps the parallel net decomposition (0 = GOMAXPROCS).
	Workers int
	// Obs attaches telemetry: RouteCtx opens phase spans (decompose,
	// initial pass, each negotiation round) and publishes segment/reroute
	// counters. Nil disables everything; excluded from JSON so Config can
	// appear in the run report.
	Obs *obs.Recorder `json:"-"`
}

// DefaultConfig returns the evaluation settings.
func DefaultConfig() Config {
	return Config{
		MaxRipup:      3,
		HistoryGain:   1.5,
		CongestWeight: 4,
		BendPenalty:   0.5,
		WindowMargin:  8,
		PinCost:       0.4,
		PatternFirst:  true,
	}
}

// Result is the routing report.
type Result struct {
	Map      *cong.Map
	HOF, VOF float64 // overflow ratios in percent
	WL       float64 // routed wirelength in design units
	Segments int     // two-point segments routed
	Rerouted int     // segments rerouted during negotiation

	// Paths holds the final routed Gcell sequence of every segment, in
	// segment order.
	Paths [][]int32
}

// segment is one two-point routing task.
type segment struct {
	ai, aj, bi, bj int
	path           []int32 // flat Gcell indices, in order
}

// Route routes every net of d and returns the congestion report.
func Route(d *netlist.Design, cfg Config) *Result {
	res, _ := RouteCtx(context.Background(), d, cfg)
	return res
}

// routeCheckEvery is the net-batch granularity at which RouteCtx checks
// its context inside the serial routing loops: a cancel is observed
// within this many two-point segments of extra work.
const routeCheckEvery = 32

// RouteCtx is Route with cancellation. The RSMT net decomposition runs in
// parallel and stops scheduling new net batches once ctx is done; the
// serial routing and negotiation loops check the context every
// routeCheckEvery segments. The router never mutates the design, so on
// cancellation it simply returns a nil Result and an error wrapping
// flow.ErrCanceled.
func RouteCtx(ctx context.Context, d *netlist.Design, cfg Config) (*Result, error) {
	sp, ctx := obs.Start(ctx, cfg.Obs, "route")
	defer sp.End()
	if cfg.GridW == 0 {
		cfg.GridW = geom.ClampInt(int(d.Region.W()/(2*math.Max(d.RowHeight, 1e-9))), 16, 512)
	}
	if cfg.GridH == 0 {
		cfg.GridH = geom.ClampInt(int(d.Region.H()/(2*math.Max(d.RowHeight, 1e-9))), 16, 512)
	}
	r := &router{
		cfg: cfg,
		m:   cong.NewMap(d, cfg.GridW, cfg.GridH),
	}
	r.histH = make([]float64, cfg.GridW*cfg.GridH)
	r.histV = make([]float64, cfg.GridW*cfg.GridH)

	// Pin-access demand: routing a pin consumes local resources in its
	// Gcell regardless of where the net goes.
	if cfg.PinCost > 0 {
		for p := range d.Pins {
			i, j := r.m.GcellOf(d.PinPos(p))
			idx := r.m.Index(i, j)
			r.m.DmdH[idx] += cfg.PinCost
			r.m.DmdV[idx] += cfg.PinCost
		}
	}

	// Decompose all nets into segments via RSMT. Nets are independent, so
	// the topology construction runs as cancelable parallel batches of
	// nets, each with one pin-position buffer; the per-net results are
	// flattened in net order, keeping the segment sequence (and therefore
	// the negotiation) deterministic.
	const decomposeBatch = 64
	segsByNet := make([][]segment, len(d.Nets))
	spDecomp := sp.Child("route.decompose")
	batches := (len(d.Nets) + decomposeBatch - 1) / decomposeBatch
	if err := par.ForErrN(ctx, cfg.Workers, batches, func(b int) error {
		var pts []geom.Point
		for n := b * decomposeBatch; n < len(d.Nets) && n < (b+1)*decomposeBatch; n++ {
			net := &d.Nets[n]
			if len(net.Pins) < 2 {
				continue
			}
			pts = pts[:0]
			for _, pid := range net.Pins {
				pts = append(pts, d.PinPos(pid))
			}
			tree := rsmt.Build(pts)
			for _, e := range tree.Edges {
				ai, aj := r.m.GcellOf(tree.Nodes[e.A].P)
				bi, bj := r.m.GcellOf(tree.Nodes[e.B].P)
				if ai == bi && aj == bj {
					continue
				}
				segsByNet[n] = append(segsByNet[n], segment{ai: ai, aj: aj, bi: bi, bj: bj})
			}
		}
		return nil
	}); err != nil {
		spDecomp.End()
		return nil, err
	}
	spDecomp.End()
	for n := range segsByNet {
		r.segs = append(r.segs, segsByNet[n]...)
	}

	res := &Result{Map: r.m, Segments: len(r.segs)}
	cfg.Obs.Counter("route.segments").Add(int64(len(r.segs)))

	// Initial pass.
	spInit := sp.Child("route.initial")
	for i := range r.segs {
		if i%routeCheckEvery == 0 {
			if err := flow.Check(ctx); err != nil {
				spInit.End()
				return nil, err
			}
		}
		r.routeSegment(&r.segs[i])
	}
	spInit.End()
	// Negotiation rounds.
	sRerouted := cfg.Obs.Series("route.rerouted")
	for round := 0; round < cfg.MaxRipup; round++ {
		spRound := sp.Child("route.negotiate")
		spRound.SetArg("round", round+1)
		r.bumpHistory()
		rerouted := 0
		for i := range r.segs {
			if i%routeCheckEvery == 0 {
				if err := flow.Check(ctx); err != nil {
					spRound.End()
					return nil, err
				}
			}
			s := &r.segs[i]
			if !r.crossesOverflow(s) {
				continue
			}
			r.unroute(s)
			r.routeSegment(s)
			rerouted++
		}
		res.Rerouted += rerouted
		sRerouted.Observe(round+1, float64(rerouted))
		if spRound != nil {
			spRound.SetArg("rerouted", rerouted)
		}
		spRound.End()
		if rerouted == 0 {
			break
		}
	}
	cfg.Obs.Counter("route.total_rerouted").Add(int64(res.Rerouted))

	res.HOF, res.VOF = r.m.OverflowRatios()
	res.Paths = make([][]int32, len(r.segs))
	for i := range r.segs {
		res.WL += r.pathLength(&r.segs[i])
		res.Paths[i] = r.segs[i].path
	}
	return res, nil
}

type router struct {
	cfg  Config
	m    *cong.Map
	segs []segment

	histH, histV []float64

	// A* scratch, allocated per search window
	open  pq
	gCost []float64
	came  []int32
	gen   []uint32
	genID uint32
}

// pathLength returns the routed length of s in design units.
func (r *router) pathLength(s *segment) float64 {
	if len(s.path) < 2 {
		return 0
	}
	total := 0.0
	for k := 1; k < len(s.path); k++ {
		a, b := int(s.path[k-1]), int(s.path[k])
		if abs(a-b) == 1 {
			total += r.m.GW
		} else {
			total += r.m.GH
		}
	}
	return total
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// addDemand applies (or removes, with sign -1) the demand of a path:
// each Gcell boundary crossing adds half a track to both sides in the
// crossing direction.
func (r *router) addDemand(path []int32, sign float64) {
	for k := 1; k < len(path); k++ {
		a, b := int(path[k-1]), int(path[k])
		if abs(a-b) == 1 {
			r.m.DmdH[a] += 0.5 * sign
			r.m.DmdH[b] += 0.5 * sign
		} else {
			r.m.DmdV[a] += 0.5 * sign
			r.m.DmdV[b] += 0.5 * sign
		}
	}
}

func (r *router) unroute(s *segment) {
	r.addDemand(s.path, -1)
	s.path = s.path[:0]
}

func (r *router) crossesOverflow(s *segment) bool {
	for k := 1; k < len(s.path); k++ {
		a, b := int(s.path[k-1]), int(s.path[k])
		if abs(a-b) == 1 {
			if r.m.OverflowH(a) > 0 || r.m.OverflowH(b) > 0 {
				return true
			}
		} else {
			if r.m.OverflowV(a) > 0 || r.m.OverflowV(b) > 0 {
				return true
			}
		}
	}
	return false
}

func (r *router) bumpHistory() {
	for i := range r.histH {
		if r.m.OverflowH(i) > 0 {
			r.histH[i] += r.cfg.HistoryGain
		}
		if r.m.OverflowV(i) > 0 {
			r.histV[i] += r.cfg.HistoryGain
		}
	}
}

// moveCost is the negotiated cost of crossing from Gcell a to adjacent
// Gcell b in direction dir (true = horizontal).
func (r *router) moveCost(a, b int, horiz bool) float64 {
	var dmd, capA, capB, hist float64
	if horiz {
		dmd = (r.m.DmdH[a]+r.m.DmdH[b])/2 + 1
		capA, capB = r.m.CapH[a], r.m.CapH[b]
		hist = (r.histH[a] + r.histH[b]) / 2
	} else {
		dmd = (r.m.DmdV[a]+r.m.DmdV[b])/2 + 1
		capA, capB = r.m.CapV[a], r.m.CapV[b]
		hist = (r.histV[a] + r.histV[b]) / 2
	}
	capMin := math.Max(math.Min(capA, capB), 1e-6)
	over := (dmd - capMin) / capMin
	cost := 1.0 + hist
	if over > 0 {
		cost += r.cfg.CongestWeight * over
	}
	return cost
}

// dir encoding for A* states: 0 = none, 1 = horizontal, 2 = vertical.
const numDirs = 3

// tryPattern attempts the two L-shaped routes for s and commits the first
// one that adds no overflow. Straight segments have a single candidate.
func (r *router) tryPattern(s *segment) bool {
	build := func(horizFirst bool) []int32 {
		path := make([]int32, 0, abs(s.ai-s.bi)+abs(s.aj-s.bj)+1)
		appendRun := func(i0, j0, i1, j1 int) {
			di, dj := sign(i1-i0), sign(j1-j0)
			i, j := i0, j0
			for {
				idx := int32(r.m.Index(i, j))
				if len(path) == 0 || path[len(path)-1] != idx {
					path = append(path, idx)
				}
				if i == i1 && j == j1 {
					break
				}
				i += di
				j += dj
			}
		}
		if horizFirst {
			appendRun(s.ai, s.aj, s.bi, s.aj)
			appendRun(s.bi, s.aj, s.bi, s.bj)
		} else {
			appendRun(s.ai, s.aj, s.ai, s.bj)
			appendRun(s.ai, s.bj, s.bi, s.bj)
		}
		return path
	}
	fits := func(path []int32) bool {
		for k := 1; k < len(path); k++ {
			a, b := int(path[k-1]), int(path[k])
			if abs(a-b) == 1 {
				if r.m.DmdH[a]+0.5 > r.m.CapH[a] || r.m.DmdH[b]+0.5 > r.m.CapH[b] {
					return false
				}
			} else {
				if r.m.DmdV[a]+0.5 > r.m.CapV[a] || r.m.DmdV[b]+0.5 > r.m.CapV[b] {
					return false
				}
			}
		}
		return true
	}
	for _, horizFirst := range []bool{true, false} {
		p := build(horizFirst)
		if fits(p) {
			s.path = p
			r.addDemand(p, 1)
			return true
		}
		if s.ai == s.bi || s.aj == s.bj {
			break // straight segment: both orders identical
		}
	}
	return false
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// routeSegment runs A* within the segment's expanded bounding-box window.
func (r *router) routeSegment(s *segment) {
	if r.cfg.PatternFirst && r.tryPattern(s) {
		return
	}
	m := r.cfg.WindowMargin
	i0 := geom.ClampInt(min(s.ai, s.bi)-m, 0, r.m.W-1)
	i1 := geom.ClampInt(max(s.ai, s.bi)+m, 0, r.m.W-1)
	j0 := geom.ClampInt(min(s.aj, s.bj)-m, 0, r.m.H-1)
	j1 := geom.ClampInt(max(s.aj, s.bj)+m, 0, r.m.H-1)
	ww := i1 - i0 + 1
	wh := j1 - j0 + 1
	nStates := ww * wh * numDirs
	if cap(r.gCost) < nStates {
		r.gCost = make([]float64, nStates)
		r.came = make([]int32, nStates)
		r.gen = make([]uint32, nStates)
	}
	r.genID++
	genID := r.genID

	state := func(i, j, dir int) int32 {
		return int32(((j-j0)*ww+(i-i0))*numDirs + dir)
	}
	unpack := func(st int32) (int, int, int) {
		dir := int(st) % numDirs
		rest := int(st) / numDirs
		return rest%ww + i0, rest/ww + j0, dir
	}
	heurist := func(i, j int) float64 {
		return float64(abs(i-s.bi) + abs(j-s.bj))
	}

	r.open = r.open[:0]
	start := state(s.ai, s.aj, 0)
	r.gCost[start] = 0
	r.came[start] = -1
	r.gen[start] = genID
	r.open.push(pqItem{prio: heurist(s.ai, s.aj), state: start})

	var goal int32 = -1
	for len(r.open) > 0 {
		it := r.open.pop()
		i, j, dir := unpack(it.state)
		if r.gen[it.state] != genID || it.prio-heurist(i, j) > r.gCost[it.state]+1e-12 {
			continue // stale entry
		}
		if i == s.bi && j == s.bj {
			goal = it.state
			break
		}
		g := r.gCost[it.state]
		try := func(ni, nj, ndir int, horiz bool) {
			if ni < i0 || ni > i1 || nj < j0 || nj > j1 {
				return
			}
			a := r.m.Index(i, j)
			b := r.m.Index(ni, nj)
			c := r.moveCost(a, b, horiz)
			if dir != 0 && dir != ndir {
				c += r.cfg.BendPenalty
			}
			ns := state(ni, nj, ndir)
			ng := g + c
			if r.gen[ns] == genID && ng >= r.gCost[ns]-1e-12 {
				return
			}
			r.gCost[ns] = ng
			r.came[ns] = it.state
			r.gen[ns] = genID
			r.open.push(pqItem{prio: ng + heurist(ni, nj), state: ns})
		}
		try(i+1, j, 1, true)
		try(i-1, j, 1, true)
		try(i, j+1, 2, false)
		try(i, j-1, 2, false)
	}
	if goal < 0 {
		// Window exhausted without reaching the sink (should not happen
		// with an all-four-neighbour grid); fall back to an L path.
		s.path = s.path[:0]
		for i := min(s.ai, s.bi); i <= max(s.ai, s.bi); i++ {
			s.path = append(s.path, int32(r.m.Index(i, s.aj)))
		}
		if s.aj != s.bj {
			step := 1
			if s.bj < s.aj {
				step = -1
			}
			for j := s.aj + step; ; j += step {
				s.path = append(s.path, int32(r.m.Index(s.bi, j)))
				if j == s.bj {
					break
				}
			}
		}
		r.addDemand(s.path, 1)
		return
	}

	// Reconstruct path (Gcell sequence, dropping duplicate cells from
	// direction-state transitions).
	s.path = s.path[:0]
	for st := goal; st >= 0; st = r.came[st] {
		i, j, _ := unpack(st)
		idx := int32(r.m.Index(i, j))
		if len(s.path) == 0 || s.path[len(s.path)-1] != idx {
			s.path = append(s.path, idx)
		}
	}
	// Reverse to source → sink order.
	for a, b := 0, len(s.path)-1; a < b; a, b = a+1, b-1 {
		s.path[a], s.path[b] = s.path[b], s.path[a]
	}
	r.addDemand(s.path, 1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pqItem is an A* open-list entry.
type pqItem struct {
	prio  float64
	state int32
}

// pq is the A* open list: a binary min-heap on prio. push and pop make
// container/heap's comparisons and swaps in the same order, so equal
// priorities leave in the same order they would through heap.Push and
// heap.Pop — without boxing each item in an interface.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	for j := len(h) - 1; j > 0; { // container/heap's up
		i := (j - 1) / 2
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*p = h
}

func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; { // container/heap's down over h[:n]
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].prio < h[j].prio {
			j = j2
		}
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*p = h[:n]
	return h[n]
}
