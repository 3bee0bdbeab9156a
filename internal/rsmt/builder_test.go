package rsmt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"puffer/internal/geom"
)

// requireSameTree fails unless got has want's nodes and edges. Coordinates
// compare with ==, not by bit pattern: the Hanan coordinate dedupe keeps
// one of -0.0 and 0.0, and which one is not part of the contract.
func requireSameTree(t testing.TB, pts []geom.Point, got, want Tree) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%v: %d nodes / %d edges, reference has %d / %d",
			pts, len(got.Nodes), len(got.Edges), len(want.Nodes), len(want.Edges))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("%v: node %d = %+v, reference %+v", pts, i, got.Nodes[i], want.Nodes[i])
		}
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%v: edge %d = %v, reference %v", pts, i, got.Edges[i], want.Edges[i])
		}
	}
}

// seededNet draws n pins in one of the shapes that stress the
// construction's tie-breaking: generic positions, a coarse lattice (exact
// ties between candidates, and duplicate pins), a single line, and
// design-scale coordinates where a gain is a small difference of large
// sums.
func seededNet(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	switch rng.Intn(5) {
	case 0: // generic
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
	case 1: // 6×6 lattice: ties and duplicates
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
		}
	case 2: // collinear
		y := rng.Float64() * 100
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(40)), y)
		}
	case 3: // 1e5 scale on a site grid
		for i := range pts {
			pts[i] = geom.Pt(1e5+0.19*float64(rng.Intn(4000)), 1e5+1.4*float64(rng.Intn(300)))
		}
	case 4: // a few clusters of near-duplicates
		for i := range pts {
			c := float64(rng.Intn(3)) * 30
			pts[i] = geom.Pt(c+rng.Float64()*1e-3, c+float64(rng.Intn(2)))
		}
	}
	return pts
}

// TestBuildMatchesReference is the bit-identity oracle: Build, and a
// reused Builder appending into slabs, return the nodes and edges of the
// construction they replaced.
func TestBuildMatchesReference(t *testing.T) {
	cross := []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(2, 1), geom.Pt(1, 2)}
	requireSameTree(t, cross, Build(cross), referenceBuild(cross))
	zeros := []geom.Point{geom.Pt(0, 1), geom.Pt(math.Copysign(0, -1), 3), geom.Pt(2, math.Copysign(0, -1)), geom.Pt(5, 0), geom.Pt(3, 3)}
	requireSameTree(t, zeros, Build(zeros), referenceBuild(zeros))

	rng := rand.New(rand.NewSource(26))
	var b Builder
	var nodes []Node
	var edges []Edge
	nets := 6000
	if testing.Short() {
		nets = 1500
	}
	for k := 0; k < nets; k++ {
		n := rng.Intn(64)
		if k%3 != 0 {
			n = rng.Intn(maxSteinerPins + 2) // most nets take the 1-Steiner path
		}
		pts := seededNet(rng, n)
		want := referenceBuild(pts)
		requireSameTree(t, pts, Build(pts), want)
		n0, e0 := len(nodes), len(edges)
		nodes, edges = b.Append(nodes, edges, pts)
		requireSameTree(t, pts, Tree{Nodes: nodes[n0:], Edges: edges[e0:]}, want)
		if k%64 == 63 {
			nodes, edges = nodes[:0], edges[:0]
		}
	}
}

// TestBuildReturnsOwnedTree: the Tree Build returns is not a view of the
// pooled Builder, so a later Build leaves it alone.
func TestBuildReturnsOwnedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := seededNet(rng, 8)
	got := Build(pts)
	for k := 0; k < 20; k++ {
		Build(seededNet(rng, 4+rng.Intn(7)))
	}
	requireSameTree(t, pts, got, referenceBuild(pts))
}

// fuzzNet decodes a byte string into a net: one byte picks the coordinate
// scale, then three bytes per pin (x, y on a 0..255 lattice, and a
// sub-lattice nudge), so the fuzzer reaches duplicates, ties and
// near-ties easily and every coordinate is finite.
func fuzzNet(data []byte) []geom.Point {
	if len(data) == 0 {
		return nil
	}
	scale := []float64{1, 0.19, 1e-3, 977.3}[data[0]%4]
	off := []float64{0, 1e5}[data[0]/4%2]
	data = data[1:]
	var pts []geom.Point
	for ; len(data) >= 3 && len(pts) < 63; data = data[3:] {
		nx, ny := float64(data[2]&0xf)/16, float64(data[2]>>4)/16
		if data[2]%3 != 0 {
			nx, ny = 0, 0
		}
		pts = append(pts, geom.Pt(off+scale*(float64(data[0])+nx), off+scale*(float64(data[1])+ny)))
	}
	return pts
}

func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 2, 1, 0, 1, 2, 0})
	f.Add([]byte{5, 10, 10, 3, 10, 10, 0, 40, 10, 7, 10, 40, 9, 25, 25, 1})
	seed := make([]byte, 1+3*10)
	binary.LittleEndian.PutUint64(seed[1:], 0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(seed[9:], 0xc2b2ae3d27d4eb4f)
	binary.LittleEndian.PutUint64(seed[17:], 0x165667b19e3779f9)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzNet(data)
		requireSameTree(t, pts, Build(pts), referenceBuild(pts))
	})
}

// TestInsertedLengthMatchesPrim checks the filter against what it stands
// in for: the O(n) vertex-insertion update prices a point within rounding
// of the full Prim over the enlarged set.
func TestInsertedLengthMatchesPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var b Builder
	for k := 0; k < 2000; k++ {
		b.pts = append(b.pts[:0], seededNet(rng, 1+rng.Intn(14))...)
		base := b.prim(b.pts)
		z := seededNet(rng, 1)[0]
		got := b.insertedLength(z)
		want := mstLength(append(append([]geom.Point(nil), b.pts...), z))
		if math.Abs(got-want) > 1e-12*(1+base) {
			t.Fatalf("%v + %v: inserted length %v, Prim %v", b.pts, z, got, want)
		}
	}
}

// TestFilterSparesMostPrims: the point of the filter — on generic nets a
// round puts a handful of candidates, not the whole Hanan grid, to the
// full Prim.
func TestFilterSparesMostPrims(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var b Builder
	cands, trials := 0, 0
	for k := 0; k < 300; k++ {
		b.pts = b.pts[:0]
		for i := 0; i < 8; i++ {
			b.pts = append(b.pts, geom.Pt(rng.Float64()*100, rng.Float64()*100))
		}
		base := b.prim(b.pts)
		b.bestInsertion(base)
		cands += len(b.cands)
		best := math.Inf(-1)
		for _, c := range b.cands {
			best = math.Max(best, c.gain)
		}
		for _, c := range b.cands {
			if c.gain >= best-filterSlack(base) {
				trials++
			}
		}
	}
	if trials*10 > cands {
		t.Errorf("%d of %d candidates reached the full Prim, want under a tenth", trials, cands)
	}
}

// TestBuilderZeroAllocSteadyState: a warm Builder appending into slabs
// with room allocates nothing, whatever path the net takes.
func TestBuilderZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var nets [][]geom.Point
	for n := 0; n <= 40; n++ {
		nets = append(nets, seededNet(rng, n), seededNet(rng, n))
	}
	var b Builder
	var nodes []Node
	var edges []Edge
	run := func() {
		nodes, edges = nodes[:0], edges[:0]
		for _, pts := range nets {
			nodes, edges = b.Append(nodes, edges, pts)
		}
	}
	run() // sizes the scratch and the slabs
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("warm Builder allocates %v objects per %d nets, want 0", got, len(nets))
	}
}
