// Package feature extracts the multi-feature view used for cell padding
// (paper Sec. III-B1). Three categories of features are computed per cell:
//
//   - Local features: the signed local congestion LCg(c) of Eq. 9 (maximum
//     Cg over the Gcells the cell overlaps) and the local pin density.
//   - CNN-inspired features: surrounding congestion and surrounding pin
//     density — a mean-filter convolution over the cell's bounding box
//     expanded by a kernel margin, computed with summed-area tables.
//   - GNN-inspired feature: pin congestion PCg(c) of Eqs. 12–13, which
//     aggregates over the net topology: for each pin, the minimum over all
//     candidate L- and Z-shaped routing paths of its incident two-point
//     nets of the maximum Gcell congestion along the path.
package feature

import (
	"context"
	"math"

	"puffer/internal/cong"
	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/par"
	"puffer/internal/rsmt"
)

// Count is the number of features per cell, |F| in Eq. 14.
const Count = 5

// Feature indices within a cell's feature vector.
const (
	LocalCg = iota
	LocalPinDensity
	SurroundCg
	SurroundPinDensity
	PinCg
)

// Names lists the feature names in vector order.
var Names = [Count]string{
	"local_congestion",
	"local_pin_density",
	"surround_congestion",
	"surround_pin_density",
	"pin_congestion",
}

// Params control the extraction.
type Params struct {
	// KernelMargin is the expansion of the cell bounding box, in Gcells,
	// for the CNN-inspired surrounding features (the convolution kernel
	// half-size).
	KernelMargin int
	// Workers caps the extraction parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultParams returns the hand-tuned defaults; the strategy exploration
// replaces KernelMargin when searching.
func DefaultParams() Params {
	return Params{KernelMargin: 2}
}

// zSamples caps how many interior Z-path bend positions are tried per
// two-point net when computing pin congestion.
const zSamples = 4

// Set holds the extracted per-cell features, indexed [cell][feature].
type Set struct {
	Vec [][Count]float64
}

// Extract computes all features for every movable cell of d against the
// congestion map m and the per-net topologies trees (as produced by
// cong.Estimator). Fixed cells get zero vectors.
func Extract(d *netlist.Design, m *cong.Map, trees []rsmt.Tree, p Params) *Set {
	s, _ := ExtractCtx(context.Background(), d, m, trees, p)
	return s
}

// ExtractCtx is Extract with cancellation: each parallel extraction loop
// stops scheduling new cell/net chunks once ctx is done and returns an
// error wrapping flow.ErrCanceled. The partially filled Set is returned
// so callers can discard it without a nil check.
func ExtractCtx(ctx context.Context, d *netlist.Design, m *cong.Map, trees []rsmt.Tree, p Params) (*Set, error) {
	// Extraction carries no recorder of its own: when the caller's context
	// holds a span (the padding optimizer's "padding.run"), the three
	// parallel phases report as its children; otherwise these are all nil
	// no-ops.
	parent := obs.FromContext(ctx)
	sp := parent.Child("feature.extract")
	defer sp.End()

	s := &Set{Vec: make([][Count]float64, len(d.Cells))}

	// Per-Gcell congestion and pin density grids plus their summed-area
	// tables for the mean-filter features.
	size := m.W * m.H
	cg := make([]float64, size)
	pd := make([]float64, size)
	for i := 0; i < size; i++ {
		cg[i] = m.Cg(i)
		pd[i] = m.PinDensity(i)
	}
	satCg := newSAT(cg, m.W, m.H)
	satPd := newSAT(pd, m.W, m.H)

	// Local and CNN-inspired features per cell.
	spCells := sp.Child("feature.local_cnn")
	if err := par.ForErrN(ctx, p.Workers, len(d.Cells), func(ci int) error {
		c := &d.Cells[ci]
		if c.Fixed {
			return nil
		}
		r := c.Rect().Intersect(m.Region)
		ci0, cj0 := m.GcellOf(r.Lo)
		hi := r.Hi
		// Nudge the exclusive corner inside so a cell ending exactly on a
		// Gcell boundary does not claim the next Gcell.
		hi.X -= 1e-9
		hi.Y -= 1e-9
		ci1, cj1 := m.GcellOf(hi)
		if ci1 < ci0 {
			ci1 = ci0
		}
		if cj1 < cj0 {
			cj1 = cj0
		}

		lc := math.Inf(-1)
		lp := 0.0
		for j := cj0; j <= cj1; j++ {
			for i := ci0; i <= ci1; i++ {
				idx := m.Index(i, j)
				if cg[idx] > lc {
					lc = cg[idx]
				}
				if pd[idx] > lp {
					lp = pd[idx]
				}
			}
		}
		s.Vec[ci][LocalCg] = lc
		s.Vec[ci][LocalPinDensity] = lp

		k := p.KernelMargin
		s.Vec[ci][SurroundCg] = satCg.mean(ci0-k, cj0-k, ci1+k, cj1+k)
		s.Vec[ci][SurroundPinDensity] = satPd.mean(ci0-k, cj0-k, ci1+k, cj1+k)
		return nil
	}); err != nil {
		spCells.End()
		return s, err
	}
	spCells.End()

	// GNN-inspired pin congestion. First per pin, then summed per cell
	// (Eq. 12). Nets are independent, so parallelize over nets with a
	// per-pin result slice (each pin belongs to exactly one net).
	pinCg := make([]float64, len(d.Pins))
	for i := range pinCg {
		pinCg[i] = math.Inf(1)
	}
	spPins := sp.Child("feature.pin_cg")
	if err := par.ForErrN(ctx, p.Workers, len(d.Nets), func(n int) error {
		if n >= len(trees) {
			return nil
		}
		tree := &trees[n]
		net := &d.Nets[n]
		for _, e := range tree.Edges {
			a, b := tree.Nodes[e.A], tree.Nodes[e.B]
			pc := pathCongestion(m, cg, a.P, b.P)
			if a.Pin >= 0 {
				pid := net.Pins[a.Pin]
				if pc < pinCg[pid] {
					pinCg[pid] = pc
				}
			}
			if b.Pin >= 0 {
				pid := net.Pins[b.Pin]
				if pc < pinCg[pid] {
					pinCg[pid] = pc
				}
			}
		}
		return nil
	}); err != nil {
		spPins.End()
		return s, err
	}
	spPins.End()
	if err := par.ForErrN(ctx, p.Workers, len(d.Cells), func(ci int) error {
		c := &d.Cells[ci]
		if c.Fixed {
			return nil
		}
		sum := 0.0
		for _, pid := range c.Pins {
			if v := pinCg[pid]; !math.IsInf(v, 1) {
				sum += v
			}
		}
		s.Vec[ci][PinCg] = sum
		return nil
	}); err != nil {
		return s, err
	}
	return s, nil
}

// pathCongestion returns the minimum over candidate L- and Z-shaped paths
// between the Gcells of points a and b of the maximum congestion along the
// path (Eq. 13).
func pathCongestion(m *cong.Map, cg []float64, a, b geom.Point) float64 {
	ai, aj := m.GcellOf(a)
	bi, bj := m.GcellOf(b)
	if ai == bi && aj == bj {
		return cg[m.Index(ai, aj)]
	}
	if ai == bi {
		return maxAlongV(m, cg, ai, aj, bj)
	}
	if aj == bj {
		return maxAlongH(m, cg, aj, ai, bi)
	}

	// L-shaped candidates: horizontal-then-vertical and vertical-then-
	// horizontal.
	best := math.Min(
		math.Max(maxAlongH(m, cg, aj, ai, bi), maxAlongV(m, cg, bi, aj, bj)),
		math.Max(maxAlongV(m, cg, ai, aj, bj), maxAlongH(m, cg, bj, ai, bi)),
	)

	// Z-shaped candidates: HVH with an interior bend column, VHV with an
	// interior bend row, sampled evenly up to zSamples positions each.
	lo, hi := minInt(ai, bi), maxInt(ai, bi)
	for _, c := range sampleInterior(lo, hi, zSamples) {
		v := math.Max(maxAlongH(m, cg, aj, ai, c),
			math.Max(maxAlongV(m, cg, c, aj, bj), maxAlongH(m, cg, bj, c, bi)))
		if v < best {
			best = v
		}
	}
	lo, hi = minInt(aj, bj), maxInt(aj, bj)
	for _, r := range sampleInterior(lo, hi, zSamples) {
		v := math.Max(maxAlongV(m, cg, ai, aj, r),
			math.Max(maxAlongH(m, cg, r, ai, bi), maxAlongV(m, cg, bi, r, bj)))
		if v < best {
			best = v
		}
	}
	return best
}

// maxAlongH returns the maximum congestion over Gcells (i0..i1, j).
func maxAlongH(m *cong.Map, cg []float64, j, i0, i1 int) float64 {
	if i0 > i1 {
		i0, i1 = i1, i0
	}
	best := math.Inf(-1)
	row := j * m.W
	for i := i0; i <= i1; i++ {
		if v := cg[row+i]; v > best {
			best = v
		}
	}
	return best
}

// maxAlongV returns the maximum congestion over Gcells (i, j0..j1).
func maxAlongV(m *cong.Map, cg []float64, i, j0, j1 int) float64 {
	if j0 > j1 {
		j0, j1 = j1, j0
	}
	best := math.Inf(-1)
	for j := j0; j <= j1; j++ {
		if v := cg[j*m.W+i]; v > best {
			best = v
		}
	}
	return best
}

// sampleInterior returns up to k evenly spaced integers strictly between lo
// and hi.
func sampleInterior(lo, hi, k int) []int {
	n := hi - lo - 1
	if n <= 0 || k <= 0 {
		return nil
	}
	if n <= k {
		out := make([]int, 0, n)
		for v := lo + 1; v < hi; v++ {
			out = append(out, v)
		}
		return out
	}
	out := make([]int, 0, k)
	for s := 1; s <= k; s++ {
		out = append(out, lo+s*(n+1)/(k+1))
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sat is a summed-area table over a W×H grid for O(1) window means.
type sat struct {
	w, h int
	s    []float64 // (w+1)×(h+1), s[(j)*(w+1)+i] = sum of rect [0,i)×[0,j)
}

func newSAT(grid []float64, w, h int) *sat {
	t := &sat{w: w, h: h, s: make([]float64, (w+1)*(h+1))}
	for j := 0; j < h; j++ {
		rowSum := 0.0
		for i := 0; i < w; i++ {
			rowSum += grid[j*w+i]
			t.s[(j+1)*(w+1)+(i+1)] = t.s[j*(w+1)+(i+1)] + rowSum
		}
	}
	return t
}

// mean returns the average over the inclusive Gcell window [i0..i1]×[j0..j1]
// clamped to the grid.
func (t *sat) mean(i0, j0, i1, j1 int) float64 {
	i0 = geom.ClampInt(i0, 0, t.w-1)
	i1 = geom.ClampInt(i1, 0, t.w-1)
	j0 = geom.ClampInt(j0, 0, t.h-1)
	j1 = geom.ClampInt(j1, 0, t.h-1)
	if i1 < i0 || j1 < j0 {
		return 0
	}
	w1 := t.w + 1
	sum := t.s[(j1+1)*w1+(i1+1)] - t.s[j0*w1+(i1+1)] - t.s[(j1+1)*w1+i0] + t.s[j0*w1+i0]
	return sum / float64((i1-i0+1)*(j1-j0+1))
}
