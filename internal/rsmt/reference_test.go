package rsmt

import (
	"math"
	"sort"

	"puffer/internal/geom"
)

// referenceBuild is the construction Build replaced, kept verbatim as the
// oracle (the abacusRow pattern): a fresh O(n²) Prim with four allocations
// per Hanan candidate per round. Builder must return the same nodes and
// edges for every input.
func referenceBuild(pts []geom.Point) Tree {
	switch len(pts) {
	case 0:
		return Tree{}
	case 1:
		return Tree{Nodes: []Node{{P: pts[0], Pin: 0}}}
	case 2:
		return Tree{
			Nodes: []Node{{P: pts[0], Pin: 0}, {P: pts[1], Pin: 1}},
			Edges: []Edge{{0, 1}},
		}
	case 3:
		return referenceThree(pts)
	}
	if len(pts) <= maxSteinerPins {
		return buildOneSteiner(pts)
	}
	return referenceMST(pts)
}

// referenceThree produces the optimal 3-pin RSMT: a Steiner point at the
// coordinate-wise median.
func referenceThree(pts []geom.Point) Tree {
	xs := []float64{pts[0].X, pts[1].X, pts[2].X}
	ys := []float64{pts[0].Y, pts[1].Y, pts[2].Y}
	sort.Float64s(xs)
	sort.Float64s(ys)
	med := geom.Pt(xs[1], ys[1])

	t := Tree{Nodes: []Node{
		{P: pts[0], Pin: 0}, {P: pts[1], Pin: 1}, {P: pts[2], Pin: 2},
	}}
	// If the median coincides with a pin, connect through that pin.
	for i, p := range pts {
		if p == med {
			for j := range pts {
				if j != i {
					t.Edges = append(t.Edges, Edge{i, j})
				}
			}
			return t
		}
	}
	s := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{P: med, Steiner: true, Pin: -1})
	for i := range pts {
		t.Edges = append(t.Edges, Edge{i, s})
	}
	return t
}

// referenceMST returns the rectilinear minimum spanning tree via Prim's
// algorithm, O(n²).
func referenceMST(pts []geom.Point) Tree {
	t := Tree{Nodes: make([]Node, len(pts))}
	for i, p := range pts {
		t.Nodes[i] = Node{P: p, Pin: i}
	}
	t.Edges = primEdges(pts)
	return t
}

// primEdges computes MST edges over the points.
func primEdges(pts []geom.Point) []Edge {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[0] = 0
	edges := make([]Edge, 0, n-1)
	for k := 0; k < n; k++ {
		best, bd := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bd {
				best, bd = i, dist[i]
			}
		}
		inTree[best] = true
		if parent[best] >= 0 {
			edges = append(edges, Edge{parent[best], best})
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].ManhattanDist(pts[i]); d < dist[i] {
					dist[i] = d
					parent[i] = best
				}
			}
		}
	}
	return edges
}

// mstLength returns the MST length over the points.
func mstLength(pts []geom.Point) float64 {
	total := 0.0
	for _, e := range primEdges(pts) {
		total += pts[e.A].ManhattanDist(pts[e.B])
	}
	return total
}

// buildOneSteiner runs the iterated 1-Steiner heuristic: repeatedly insert
// the Hanan-grid candidate that shrinks the MST the most, pruning Steiner
// points that end up with degree <= 2.
func buildOneSteiner(pts []geom.Point) Tree {
	pins := append([]geom.Point(nil), pts...)
	var steiners []geom.Point

	all := func() []geom.Point {
		return append(append([]geom.Point(nil), pins...), steiners...)
	}

	const maxInserts = 4
	for round := 0; round < maxInserts; round++ {
		cur := all()
		base := mstLength(cur)

		// Hanan grid over current node set.
		xs := uniqueCoords(cur, func(p geom.Point) float64 { return p.X })
		ys := uniqueCoords(cur, func(p geom.Point) float64 { return p.Y })

		bestGain := 1e-9
		var bestPt geom.Point
		found := false
		cand := make([]geom.Point, len(cur)+1)
		copy(cand, cur)
		for _, x := range xs {
			for _, y := range ys {
				h := geom.Pt(x, y)
				if containsPoint(cur, h) {
					continue
				}
				cand[len(cur)] = h
				if gain := base - mstLength(cand); gain > bestGain {
					bestGain = gain
					bestPt = h
					found = true
				}
			}
		}
		if !found {
			break
		}
		steiners = append(steiners, bestPt)
		steiners = pruneLowDegree(pins, steiners)
	}

	// Final topology over pins + surviving Steiner points.
	nodes := make([]Node, 0, len(pins)+len(steiners))
	for i, p := range pins {
		nodes = append(nodes, Node{P: p, Pin: i})
	}
	for _, s := range steiners {
		nodes = append(nodes, Node{P: s, Steiner: true, Pin: -1})
	}
	allPts := all()
	return Tree{Nodes: nodes, Edges: primEdges(allPts)}
}

// pruneLowDegree drops Steiner points whose degree in the MST over
// pins+steiners is <= 2 (they cannot reduce length), iterating to a fixed
// point.
func pruneLowDegree(pins, steiners []geom.Point) []geom.Point {
	for {
		cur := append(append([]geom.Point(nil), pins...), steiners...)
		deg := make([]int, len(cur))
		for _, e := range primEdges(cur) {
			deg[e.A]++
			deg[e.B]++
		}
		kept := steiners[:0]
		removed := false
		for i, s := range steiners {
			if deg[len(pins)+i] > 2 {
				kept = append(kept, s)
			} else {
				removed = true
			}
		}
		steiners = kept
		if !removed {
			return steiners
		}
	}
}

func uniqueCoords(pts []geom.Point, get func(geom.Point) float64) []float64 {
	vals := make([]float64, 0, len(pts))
	for _, p := range pts {
		vals = append(vals, get(p))
	}
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
