package legal

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"puffer/internal/netlist"
)

// ErrIllegal is wrapped by the error a flow stage returns when the
// placement it is about to hand on fails Check.
var ErrIllegal = errors.New("legal: placement violates a legality invariant")

// Violation describes one legality violation found by Check.
type Violation struct {
	Kind  string // "row", "site", "region", "overlap", "fixed-overlap"
	Cell  int    // primary cell
	Other int    // second cell for overlap kinds, else -1
	Desc  string
}

func (v Violation) String() string { return v.Desc }

// Check verifies that every movable cell of d sits on the row and site
// grids, inside the region, and overlaps neither other movable cells nor
// fixed cells. It returns all violations found (up to max, 0 = unlimited).
// It is the programmatic form of the invariants the legalizer guarantees,
// usable by CLIs and downstream tools.
func Check(d *netlist.Design, max int) []Violation {
	var out []Violation
	add := func(v Violation) bool {
		out = append(out, v)
		return max > 0 && len(out) >= max
	}
	const eps = 1e-6

	type placed struct {
		x0, x1, y float64
		id        int
	}
	var cells []placed
	var fixed []int
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			fixed = append(fixed, i)
			continue
		}
		if d.RowHeight > 0 {
			ry := (c.Y - d.Region.Lo.Y) / d.RowHeight
			if math.Abs(ry-math.Round(ry)) > eps {
				if add(Violation{Kind: "row", Cell: i, Other: -1,
					Desc: fmt.Sprintf("cell %d (%s) off row grid: y=%g", i, c.Name, c.Y)}) {
					return out
				}
			}
		}
		if d.SiteWidth > 0 {
			sx := (c.X - d.Region.Lo.X) / d.SiteWidth
			if math.Abs(sx-math.Round(sx)) > eps {
				if add(Violation{Kind: "site", Cell: i, Other: -1,
					Desc: fmt.Sprintf("cell %d (%s) off site grid: x=%g", i, c.Name, c.X)}) {
					return out
				}
			}
		}
		if c.X < d.Region.Lo.X-eps || c.X+c.W > d.Region.Hi.X+eps ||
			c.Y < d.Region.Lo.Y-eps || c.Y+c.H > d.Region.Hi.Y+eps {
			if add(Violation{Kind: "region", Cell: i, Other: -1,
				Desc: fmt.Sprintf("cell %d (%s) outside region: (%g,%g)", i, c.Name, c.X, c.Y)}) {
				return out
			}
		}
		if c.Fence > 0 && c.Fence <= len(d.Fences) {
			f := d.Fences[c.Fence-1].Rect
			if c.X < f.Lo.X-eps || c.X+c.W > f.Hi.X+eps ||
				c.Y < f.Lo.Y-eps || c.Y+c.H > f.Hi.Y+eps {
				if add(Violation{Kind: "fence", Cell: i, Other: -1,
					Desc: fmt.Sprintf("cell %d (%s) outside fence %q", i, c.Name, d.Fences[c.Fence-1].Name)}) {
					return out
				}
			}
		}
		cells = append(cells, placed{c.X, c.X + c.W, c.Y, i})
	}

	// Movable-vs-movable overlaps within rows (sort sweep).
	// slices.SortFunc runs sort.Slice's pdqsort, so tied cells end in the
	// same order, without the reflection-based swaps.
	less := func(a, b placed) bool {
		if a.y != b.y {
			return a.y < b.y
		}
		return a.x0 < b.x0
	}
	slices.SortFunc(cells, func(a, b placed) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	for k := 1; k < len(cells); k++ {
		a, b := cells[k-1], cells[k]
		if a.y == b.y && b.x0 < a.x1-eps {
			if add(Violation{Kind: "overlap", Cell: a.id, Other: b.id,
				Desc: fmt.Sprintf("cells %d and %d overlap in row y=%g", a.id, b.id, a.y)}) {
				return out
			}
		}
	}

	// Movable-vs-fixed overlaps. Fixed cells are bucketed by the row bands
	// their outlines span, so each movable cell is tested only against the
	// fixed cells of its own bands, in ascending index as a full scan would
	// meet them.
	bands := newFixedBands(d, fixed)
	var cand []int
	for _, pc := range cells {
		c := &d.Cells[pc.id]
		cand = bands.near(c.Y, c.Y+c.H, cand[:0])
		for _, fi := range cand {
			f := &d.Cells[fi]
			if c.Rect().OverlapArea(f.Rect()) > eps {
				if add(Violation{Kind: "fixed-overlap", Cell: pc.id, Other: fi,
					Desc: fmt.Sprintf("cell %d (%s) overlaps fixed cell %d (%s)", pc.id, c.Name, fi, f.Name)}) {
					return out
				}
			}
		}
	}
	return out
}

// fixedBands buckets fixed cells by the row bands their outlines span.
//
// Two outlines share positive area only if their y-ranges overlap, and
// then the larger of their bottom edges lies in both ranges. band is
// monotone in y, so that point's band lies in both outlines' band ranges:
// every fixed cell a movable cell can overlap shares a band with it.
type fixedBands struct {
	lo, rowH float64
	n        int
	start    []int // band k's entries are ids[start[k]:start[k+1]]
	// ids holds fixed cell ids in ascending order per band: fi in the
	// cell's bottom band, ^fi in the bands above it.
	ids []int
}

// maxBands caps the band count; the top band takes every row above it,
// which keeps band monotone.
const maxBands = 1 << 16

func newFixedBands(d *netlist.Design, fixed []int) *fixedBands {
	b := &fixedBands{lo: d.Region.Lo.Y, rowH: d.RowHeight, n: 1}
	if d.RowHeight > 0 {
		if n := d.Region.H() / d.RowHeight; n >= 1 {
			b.n = int(min(n, maxBands-1)) + 1
		}
	}
	b.start = make([]int, b.n+1)
	for _, fi := range fixed {
		f := &d.Cells[fi]
		for k := b.band(f.Y); k <= b.band(f.Y+f.H); k++ {
			b.start[k+1]++
		}
	}
	for k := 0; k < b.n; k++ {
		b.start[k+1] += b.start[k]
	}
	b.ids = make([]int, b.start[b.n])
	next := append([]int(nil), b.start[:b.n]...)
	for _, fi := range fixed {
		f := &d.Cells[fi]
		k0 := b.band(f.Y)
		for k := k0; k <= b.band(f.Y+f.H); k++ {
			id := fi
			if k > k0 {
				id = ^fi
			}
			b.ids[next[k]] = id
			next[k]++
		}
	}
	return b
}

// band maps y to its row band, clamped to the bands there are; NaN goes
// to band 0.
func (b *fixedBands) band(y float64) int {
	if b.n == 1 {
		return 0
	}
	t := math.Floor((y - b.lo) / b.rowH)
	switch {
	case !(t > 0):
		return 0
	case t >= float64(b.n-1):
		return b.n - 1
	}
	return int(t)
}

// near appends to dst, in ascending index, each fixed cell sharing a band
// with the y-range [y0, y1]: every cell of its bottom band, and the cells
// whose own bottom band is one of its others.
func (b *fixedBands) near(y0, y1 float64, dst []int) []int {
	k0, k1 := b.band(y0), b.band(y1)
	for _, id := range b.ids[b.start[k0]:b.start[k0+1]] {
		if id < 0 {
			id = ^id
		}
		dst = append(dst, id)
	}
	n0 := len(dst)
	for k := k0 + 1; k <= k1; k++ {
		for _, id := range b.ids[b.start[k]:b.start[k+1]] {
			if id >= 0 {
				dst = append(dst, id)
			}
		}
	}
	if len(dst) > n0 {
		slices.Sort(dst)
	}
	return dst
}
