package density

import (
	"math/rand"
	"testing"

	"puffer/internal/geom"
)

// benchSolve isolates the spectral solve at the two production-relevant
// grid sizes. AddRect (not DepositRects) charges the grid so the solve-skip
// fingerprint never arms and every iteration runs the full pipeline. CI
// publishes the pair in BENCH_gp.json.
func benchSolve(b *testing.B, m int) {
	side := float64(m)
	g := NewGrid(geom.RectWH(0, 0, side, side), m, m)
	g.AddRect(geom.RectWH(side/4, side/4, side/3, side/3), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Solve()
	}
}

func BenchmarkDensitySolve256(b *testing.B) { benchSolve(b, 256) }
func BenchmarkDensitySolve512(b *testing.B) { benchSolve(b, 512) }

// BenchmarkDepositForce256 is the geometry around the solve at the
// place_large_calm shape: rasterize 59k cell-sized rectangles into a 256²
// grid (two lists alternate so the fingerprint never skips the raster), then
// read the force on every one of them. CI publishes it in BENCH_gp.json.
func BenchmarkDepositForce256(b *testing.B) {
	region := geom.RectWH(0, 0, 256, 256)
	g := NewGrid(region, 256, 256)
	g.AddFixedRect(geom.RectWH(100, 90, 40, 30), 1)
	var lists [2][]geom.Rect
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 59000; i++ {
		r := geom.RectWH(-1+257*rng.Float64(), -1+257*rng.Float64(), 0.6+1.2*rng.Float64(), 1)
		lists[0] = append(lists[0], r)
		lists[1] = append(lists[1], r.Translate(geom.Pt(0.3, -0.2)))
	}
	g.DepositRects(lists[0])
	g.Solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rects := lists[(i+1)%2]
		g.DepositRects(rects)
		for _, r := range rects {
			fx, fy := g.ForceOnRect(r)
			benchSink += fx + fy
		}
	}
}

var benchSink float64
