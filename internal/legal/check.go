package legal

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].y != cells[b].y {
			return cells[a].y < cells[b].y
		}
		return cells[a].x0 < cells[b].x0
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

	// Movable-vs-fixed overlaps.
	for _, pc := range cells {
		c := &d.Cells[pc.id]
		for _, fi := range fixed {
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
