package rsmt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"puffer/internal/geom"
)

// connected reports whether the tree spans all its nodes.
func connected(t *Tree) bool {
	n := len(t.Nodes)
	if n == 0 {
		return true
	}
	adj := make([][]int, n)
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

func bboxHalfPerimeter(pts []geom.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

func TestTwoPin(t *testing.T) {
	tr := Build([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)})
	if len(tr.Nodes) != 2 || len(tr.Edges) != 1 {
		t.Fatalf("2-pin tree: %d nodes, %d edges", len(tr.Nodes), len(tr.Edges))
	}
	if tr.Length() != 7 {
		t.Errorf("2-pin length = %v, want 7", tr.Length())
	}
}

func TestThreePinOptimal(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 2), geom.Pt(2, 6)}
	tr := Build(pts)
	// Optimal 3-pin RSMT length is the bbox half-perimeter.
	if want := bboxHalfPerimeter(pts); math.Abs(tr.Length()-want) > 1e-12 {
		t.Errorf("3-pin length = %v, want %v", tr.Length(), want)
	}
	steiners := 0
	for _, n := range tr.Nodes {
		if n.Steiner {
			steiners++
			if n.P != geom.Pt(2, 2) {
				t.Errorf("Steiner at %v, want (2,2)", n.P)
			}
			if n.Pin != -1 {
				t.Errorf("Steiner node Pin = %d, want -1", n.Pin)
			}
		}
	}
	if steiners != 1 {
		t.Errorf("steiners = %d, want 1", steiners)
	}
}

func TestThreePinMedianOnPin(t *testing.T) {
	// Median point (2,2) coincides with the middle pin: no Steiner needed.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(5, 7)}
	tr := Build(pts)
	for _, n := range tr.Nodes {
		if n.Steiner {
			t.Error("unnecessary Steiner point created")
		}
	}
	if want := bboxHalfPerimeter(pts); math.Abs(tr.Length()-want) > 1e-12 {
		t.Errorf("length = %v, want %v", tr.Length(), want)
	}
}

func TestFourPinCrossFindsSteiner(t *testing.T) {
	// Plus-shaped pins: MST length 6, optimal RSMT 4 via Steiner at (1,1).
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(2, 1), geom.Pt(1, 2)}
	tr := Build(pts)
	if math.Abs(tr.Length()-4) > 1e-12 {
		t.Errorf("cross RSMT length = %v, want 4", tr.Length())
	}
	if !connected(&tr) {
		t.Error("tree not connected")
	}
}

func TestLargeNetFallsBackToMST(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, maxSteinerPins+5)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	tr := Build(pts)
	for _, n := range tr.Nodes {
		if n.Steiner {
			t.Fatal("large net produced Steiner nodes")
		}
	}
	if len(tr.Edges) != len(pts)-1 {
		t.Errorf("edges = %d, want %d", len(tr.Edges), len(pts)-1)
	}
	if !connected(&tr) {
		t.Error("MST not connected")
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(4, 4), geom.Pt(1, 1)}
	tr := Build(pts)
	if !connected(&tr) {
		t.Error("tree with duplicates not connected")
	}
	if math.Abs(tr.Length()-6) > 1e-12 {
		t.Errorf("length = %v, want 6", tr.Length())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if tr := Build(nil); len(tr.Nodes) != 0 || len(tr.Edges) != 0 {
		t.Error("empty input produced nodes")
	}
	tr := Build([]geom.Point{geom.Pt(5, 5)})
	if len(tr.Nodes) != 1 || len(tr.Edges) != 0 {
		t.Error("single pin tree wrong")
	}
}

// Properties over random nets: spanning, pin tagging, the lower bound
// length >= bbox half-perimeter, the upper bound length <= MST length,
// and no low-degree Steiner points.
func TestRandomNetProperties(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size%12)
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(50)), float64(rng.Intn(50)))
		}
		tr := Build(pts)
		if !connected(&tr) {
			t.Logf("not connected: %v", pts)
			return false
		}
		// Pins preserved in order.
		for i := 0; i < n; i++ {
			if tr.Nodes[i].Pin != i || tr.Nodes[i].P != pts[i] || tr.Nodes[i].Steiner {
				t.Logf("pin %d corrupted", i)
				return false
			}
		}
		length := tr.Length()
		if length < bboxHalfPerimeter(pts)-1e-9 {
			t.Logf("length %v below bbox bound %v", length, bboxHalfPerimeter(pts))
			return false
		}
		if mst := mstLength(pts); length > mst+1e-9 {
			t.Logf("length %v above MST %v", length, mst)
			return false
		}
		// Steiner points must have degree >= 3.
		deg := tr.Degrees()
		for i := n; i < len(tr.Nodes); i++ {
			if deg[i] <= 2 {
				t.Logf("Steiner node with degree %d", deg[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSteinerImprovesOverMSTOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	improved := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		pts := make([]geom.Point, 8)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		tr := Build(pts)
		if tr.Length() < mstLength(pts)-1e-9 {
			improved++
		}
	}
	// The 1-Steiner heuristic should beat the plain MST on most random
	// 8-pin nets (expected improvement ~8-10%).
	if improved < trials/2 {
		t.Errorf("Steiner improved only %d/%d nets", improved, trials)
	}
}

func BenchmarkBuild8Pin(b *testing.B)  { benchmarkBuild(b, 8) }
func BenchmarkBuild64Pin(b *testing.B) { benchmarkBuild(b, 64) }

// benchmarkBuild times one net three ways: Build (owned Tree), a warm
// Builder appending into slabs (the estimator's path), and the reference
// construction Build replaced.
func benchmarkBuild(b *testing.B, pins int) {
	rng := rand.New(rand.NewSource(int64(pins)))
	pts := make([]geom.Point, pins)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Build(pts)
		}
	})
	b.Run("Append", func(b *testing.B) {
		var bd Builder
		var nodes []Node
		var edges []Edge
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nodes, edges = bd.Append(nodes[:0], edges[:0], pts)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceBuild(pts)
		}
	})
}
