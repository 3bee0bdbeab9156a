// Package rsmt constructs rectilinear Steiner minimal tree topologies for
// nets. It substitutes for the FLUTE lookup-table approach the paper uses
// (Sec. III-A2): the congestion estimator only consumes the resulting
// topology — a set of two-point nets whose endpoints are tagged as cell
// pins or Steiner points — so any good RSMT heuristic provides the same
// interface.
//
// The construction is exact for 2- and 3-pin nets, uses the iterated
// 1-Steiner heuristic over the Hanan grid for small nets, and falls back to
// the rectilinear minimum spanning tree (Prim) for large nets, where the
// MST is within a few percent of optimal and the cost of Steinerization is
// not justified.
//
// All of it runs on a Builder, which owns the scratch: a warm Builder
// appending into caller slabs allocates nothing. Build is the convenience
// wrapper that returns an owned Tree.
package rsmt

import (
	"math"
	"sync"

	"puffer/internal/geom"
)

// Node is a topology vertex: either one of the input pins (Pin >= 0, its
// index in the input slice) or a Steiner point (Steiner true, Pin -1).
type Node struct {
	P       geom.Point
	Steiner bool
	Pin     int
}

// Edge is a two-point net between topology nodes A and B (indices into
// Tree.Nodes). An edge with equal x or y coordinates at its endpoints is
// "I"-shaped; otherwise it is "L"-shaped (paper Sec. III-A2).
type Edge struct {
	A, B int
}

// Tree is the routing topology of one net.
type Tree struct {
	Nodes []Node
	Edges []Edge
}

// Length returns the total rectilinear length of the tree.
func (t *Tree) Length() float64 {
	total := 0.0
	for _, e := range t.Edges {
		total += t.Nodes[e.A].P.ManhattanDist(t.Nodes[e.B].P)
	}
	return total
}

// Degrees returns the degree of every node.
func (t *Tree) Degrees() []int {
	deg := make([]int, len(t.Nodes))
	for _, e := range t.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	return deg
}

// maxSteinerPins bounds the net size for which 1-Steiner refinement runs;
// beyond it the plain RMST is used.
const maxSteinerPins = 10

// maxInserts bounds the 1-Steiner rounds, and so the Steiner points, of one
// net.
const maxInserts = 4

// Builder constructs topologies in scratch it owns, so a caller that
// builds many nets (the congestion estimator builds every net of the
// design, every call) pays for the buffers once. The zero value is ready
// to use. A Builder is not safe for concurrent use; give each goroutine
// its own.
type Builder struct {
	// pts is the working node set of the 1-Steiner loop: the pins, the
	// surviving Steiner points, and one slot for the candidate on trial.
	pts []geom.Point

	// Prim state, and its result: the MST edges in insertion order with
	// their lengths.
	key    []float64
	parent []int
	inTree []bool
	edges  []Edge
	elen   []float64

	xs, ys []float64   // Hanan coordinates of pts
	cands  []candidate // Hanan candidates of one round, in scan order

	// insertedLength: the cheapest connection to the new point carried up
	// the tree, per node of the 1-Steiner loop.
	carry [maxSteinerPins + maxInserts]float64
}

// candidate is a Hanan point with its filtered gain (see bestInsertion).
type candidate struct {
	p    geom.Point
	gain float64
}

// Append builds the RSMT topology for the given pin locations and appends
// its nodes and edges to the caller's slabs, returning the grown slabs.
// The appended nodes are the pins in input order followed by the Steiner
// points; the appended edges index them from 0, so
// Tree{Nodes: nodes[n0:], Edges: edges[e0:]} (n0, e0 the slab lengths
// before the call) is the tree. Duplicate locations are handled
// (zero-length edges connect them). With capacity left in the slabs a
// warm Builder allocates nothing.
func (b *Builder) Append(nodes []Node, edges []Edge, pts []geom.Point) ([]Node, []Edge) {
	steiners, tree := b.build(pts)
	return appendNodes(nodes, pts, steiners), append(edges, tree...)
}

func appendNodes(nodes []Node, pins, steiners []geom.Point) []Node {
	for i, p := range pins {
		nodes = append(nodes, Node{P: p, Pin: i})
	}
	for _, s := range steiners {
		nodes = append(nodes, Node{P: s, Steiner: true, Pin: -1})
	}
	return nodes
}

// builders recycles Builders across Build calls.
var builders = sync.Pool{New: func() any { return new(Builder) }}

// Build constructs the RSMT topology for the given pin locations and
// returns it as a Tree the caller owns: Builder.Append's construction on a
// pooled Builder, and two allocations, the returned slices.
func Build(pts []geom.Point) Tree {
	if len(pts) == 0 {
		return Tree{}
	}
	b := builders.Get().(*Builder)
	steiners, tree := b.build(pts)
	t := Tree{
		Nodes: appendNodes(make([]Node, 0, len(pts)+len(steiners)), pts, steiners),
		Edges: append([]Edge(nil), tree...),
	}
	builders.Put(b)
	return t
}

// build returns the Steiner points and the edges of the topology over
// pts; edge indices count the pins first, then the Steiner points. Both
// results are views of the Builder's scratch.
func (b *Builder) build(pts []geom.Point) ([]geom.Point, []Edge) {
	b.pts, b.edges = b.pts[:0], b.edges[:0]
	switch {
	case len(pts) < 2:
	case len(pts) == 2:
		b.edges = append(b.edges, Edge{0, 1})
	case len(pts) == 3:
		b.three(pts)
	case len(pts) <= maxSteinerPins:
		b.oneSteiner(pts)
		return b.pts[len(pts):], b.edges
	default:
		// The rectilinear minimum spanning tree, O(n²).
		b.prim(pts)
	}
	return b.pts, b.edges
}

// three produces the optimal 3-pin RSMT: a Steiner point at the
// coordinate-wise median.
func (b *Builder) three(pts []geom.Point) {
	med := geom.Pt(median3(pts[0].X, pts[1].X, pts[2].X), median3(pts[0].Y, pts[1].Y, pts[2].Y))
	// If the median coincides with a pin, connect through that pin.
	for i, p := range pts {
		if p == med {
			for j := range pts {
				if j != i {
					b.edges = append(b.edges, Edge{i, j})
				}
			}
			return
		}
	}
	b.pts = append(b.pts, med)
	b.edges = append(b.edges, Edge{0, 3}, Edge{1, 3}, Edge{2, 3})
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if c < b {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// prim computes the MST over pts into b.edges and b.elen, in insertion
// order, and returns its length summed in that order. Ties break one way
// only — the lowest-index closest node joins next, under its earliest
// parent — and the trees this package returns are defined by that rule.
func (b *Builder) prim(pts []geom.Point) float64 {
	n := len(pts)
	b.edges, b.elen = b.edges[:0], b.elen[:0]
	if n < 2 {
		return 0
	}
	if cap(b.key) < n {
		b.key = make([]float64, n)
		b.parent = make([]int, n)
		b.inTree = make([]bool, n)
	}
	key, parent, inTree := b.key[:n], b.parent[:n], b.inTree[:n]
	for i := range key {
		key[i] = math.Inf(1)
		parent[i] = -1
		inTree[i] = false
	}
	key[0] = 0
	total := 0.0
	for k := 0; k < n; k++ {
		best, bd := -1, math.Inf(1)
		for i, d := range key {
			if !inTree[i] && d < bd {
				best, bd = i, d
			}
		}
		inTree[best] = true
		if parent[best] >= 0 {
			b.edges = append(b.edges, Edge{parent[best], best})
			b.elen = append(b.elen, bd)
			total += bd
		}
		for i, p := range pts {
			if !inTree[i] {
				if d := pts[best].ManhattanDist(p); d < key[i] {
					key[i] = d
					parent[i] = best
				}
			}
		}
	}
	return total
}

// oneSteiner runs the iterated 1-Steiner heuristic: repeatedly insert the
// Hanan-grid candidate that shrinks the MST the most, pruning Steiner
// points that end up with degree <= 2. It leaves the node set in b.pts
// (pins first) and its MST in b.edges.
func (b *Builder) oneSteiner(pins []geom.Point) {
	b.pts = append(b.pts, pins...)
	base := b.prim(b.pts)
	for round := 0; round < maxInserts; round++ {
		p, ok := b.bestInsertion(base)
		if !ok {
			b.prim(b.pts) // the trials overwrote the tree
			return
		}
		b.pts = append(b.pts, p)
		base = b.pruneLowDegree(len(pins))
	}
}

// bestInsertion returns the Hanan-grid point whose insertion shortens the
// MST over b.pts the most: the first in scan order (x-major over the
// sorted coordinates) among those of the largest gain, if that gain
// exceeds 1e-9. b.edges must hold that MST and base its length;
// bestInsertion overwrites both b.edges and b.elen.
//
// The gain of a point is base minus the length of a full Prim over
// b.pts plus the point, and that Prim is what used to make 1-Steiner
// expensive: O(n²) for each of up to n² points. So every point is first
// priced by insertedLength, O(n) from the one tree already built, and only
// those within delta of the best price are put to the full Prim — in scan
// order and under the same comparison, so the winner is the one that
// pricing every point by Prim would pick. The filter cannot lose that
// winner: both routes sum the same n edge lengths, in different orders,
// so they agree to a few ulps of base (≈ 1e-15·base), nine orders of
// magnitude inside delta; a point more than delta below the best filtered
// gain is therefore strictly below the best true gain, and dropping it
// changes neither the maximum nor which point reaches it first.
func (b *Builder) bestInsertion(base float64) (geom.Point, bool) {
	n := len(b.pts)
	b.xs, b.ys = b.xs[:0], b.ys[:0]
	for _, p := range b.pts {
		b.xs = insertUnique(b.xs, p.X)
		b.ys = insertUnique(b.ys, p.Y)
	}
	b.cands = b.cands[:0]
	bestFiltered := math.Inf(-1)
	for _, x := range b.xs {
		for _, y := range b.ys {
			h := geom.Pt(x, y)
			if containsPoint(b.pts, h) {
				continue
			}
			gain := base - b.insertedLength(h)
			b.cands = append(b.cands, candidate{h, gain})
			if gain > bestFiltered {
				bestFiltered = gain
			}
		}
	}

	delta := filterSlack(base)
	bestGain := 1e-9
	var bestPt geom.Point
	found := false
	b.pts = append(b.pts, geom.Point{})
	for _, c := range b.cands {
		if c.gain < bestFiltered-delta {
			continue
		}
		b.pts[n] = c.p
		if gain := base - b.prim(b.pts); gain > bestGain {
			bestGain = gain
			bestPt = c.p
			found = true
		}
	}
	b.pts = b.pts[:n]
	return bestPt, found
}

// filterSlack is how far below the best filtered gain a candidate may lie
// and still be put to the full Prim (bestInsertion's delta).
func filterSlack(base float64) float64 { return 1e-6 * (1 + base) }

// insertedLength returns the length of the MST over b.pts plus z, given
// the MST over b.pts in b.edges/b.elen, in O(n) (the vertex-insertion
// update of Chin and Houck): walk the Prim edges in reverse insertion
// order — children before parents — carrying up from each subtree the
// cheapest way it can reach z. Where a subtree's edge to its parent meets
// its carried connection, the shorter of the two stays in the tree and
// the longer becomes the parent's offer, if it beats what the parent has.
func (b *Builder) insertedLength(z geom.Point) float64 {
	carry := b.carry[:len(b.pts)]
	for i, p := range b.pts {
		carry[i] = p.ManhattanDist(z)
	}
	total := 0.0
	for k := len(b.edges) - 1; k >= 0; k-- {
		e := b.edges[k]
		short, long := b.elen[k], carry[e.B]
		if long < short {
			short, long = long, short
		}
		total += short
		if long < carry[e.A] {
			carry[e.A] = long
		}
	}
	return total + carry[0] // Prim grows the tree from node 0
}

// pruneLowDegree drops Steiner points (b.pts[nPins:]) whose degree in the
// MST over b.pts is <= 2 (they cannot reduce length), iterating to a fixed
// point. It leaves that MST in b.edges and returns its length.
func (b *Builder) pruneLowDegree(nPins int) float64 {
	for {
		total := b.prim(b.pts)
		kept := b.pts[:nPins]
		for i := nPins; i < len(b.pts); i++ {
			deg := 0
			for _, e := range b.edges {
				if e.A == i || e.B == i {
					deg++
				}
			}
			if deg > 2 {
				kept = append(kept, b.pts[i])
			}
		}
		if len(kept) == len(b.pts) {
			return total
		}
		b.pts = kept
	}
}

// insertUnique inserts v into the ascending slice s unless it is there.
func insertUnique(s []float64, v float64) []float64 {
	i := len(s)
	for i > 0 && s[i-1] > v {
		i--
	}
	if i > 0 && s[i-1] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func containsPoint(pts []geom.Point, q geom.Point) bool {
	for _, p := range pts {
		if p == q {
			return true
		}
	}
	return false
}
