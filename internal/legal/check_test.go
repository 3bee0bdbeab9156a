package legal

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

func checkDesign() *netlist.Design {
	d := &netlist.Design{
		Region:    geom.RectWH(0, 0, 20, 10),
		RowHeight: 1,
		SiteWidth: 0.25,
		Layers:    netlist.DefaultLayers(),
	}
	d.AddCell(netlist.Cell{Name: "a", W: 1, H: 1, X: 0, Y: 0})
	d.AddCell(netlist.Cell{Name: "b", W: 1, H: 1, X: 2, Y: 0})
	d.AddCell(netlist.Cell{Name: "m", W: 4, H: 4, X: 10, Y: 4, Fixed: true, Macro: true})
	return d
}

func kinds(vs []Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[v.Kind]++
	}
	return m
}

func TestCheckCleanDesign(t *testing.T) {
	d := checkDesign()
	if vs := Check(d, 0); len(vs) != 0 {
		t.Errorf("clean design reported %v", vs)
	}
}

func TestCheckRowViolation(t *testing.T) {
	d := checkDesign()
	d.Cells[0].Y = 0.5
	vs := Check(d, 0)
	if kinds(vs)["row"] != 1 {
		t.Errorf("violations = %v, want one row violation", vs)
	}
	if !strings.Contains(vs[0].String(), "off row grid") {
		t.Errorf("bad description: %s", vs[0])
	}
}

func TestCheckSiteViolation(t *testing.T) {
	d := checkDesign()
	d.Cells[0].X = 0.1
	if kinds(Check(d, 0))["site"] != 1 {
		t.Error("site violation not detected")
	}
}

func TestCheckRegionViolation(t *testing.T) {
	d := checkDesign()
	d.Cells[0].X = 19.5 // 1-wide cell sticks out
	vs := Check(d, 0)
	if kinds(vs)["region"] != 1 {
		t.Errorf("violations = %v, want region violation", vs)
	}
}

func TestCheckOverlapViolation(t *testing.T) {
	d := checkDesign()
	d.Cells[1].X = 0.5 // overlaps cell a
	vs := Check(d, 0)
	if kinds(vs)["overlap"] != 1 {
		t.Errorf("violations = %v, want overlap", vs)
	}
	v := vs[len(vs)-1]
	if v.Other == -1 {
		t.Error("overlap violation lacks second cell")
	}
}

func TestCheckFixedOverlap(t *testing.T) {
	d := checkDesign()
	d.Cells[0].X = 10
	d.Cells[0].Y = 5
	if kinds(Check(d, 0))["fixed-overlap"] != 1 {
		t.Error("fixed overlap not detected")
	}
}

func TestCheckMaxLimits(t *testing.T) {
	d := checkDesign()
	d.Cells[0].X = 0.1
	d.Cells[0].Y = 0.5
	d.Cells[1].X = 0.1
	d.Cells[1].Y = 0.5
	vs := Check(d, 1)
	if len(vs) != 1 {
		t.Errorf("max=1 returned %d violations", len(vs))
	}
}

func TestCheckAfterLegalize(t *testing.T) {
	d := scatteredDesign(42, 500, true)
	if _, err := Legalize(d, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if vs := Check(d, 0); len(vs) != 0 {
		t.Errorf("legalized design has %d violations: %v", len(vs), vs[0])
	}
}

// checkReference is the check Check replaced, kept verbatim as the oracle:
// its fixed-overlap pass tests every movable cell against every fixed cell.
func checkReference(d *netlist.Design, max int) []Violation {
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

// TestCheckMatchesReference: the banded fixed-overlap pass reports exactly
// the violations, in the order, the all-pairs pass did — on legalized
// designs seeded with fixed overlaps (macros off the row grid, tall, thin
// and zero-width fixed cells, fixed cells outside the region), off-row,
// off-site, out-of-region and out-of-fence cells, for max 0, 1 and 3.
func TestCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	kinds := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		d := scatteredSquare(int64(trial), 150+rng.Intn(200), 32, trial%2 == 0)
		for k := rng.Intn(6); k > 0; k-- {
			w, h := rng.Float64()*8, rng.Float64()*8
			if rng.Intn(4) == 0 {
				w = 0
			}
			d.AddCell(netlist.Cell{W: w, H: h, X: rng.Float64()*40 - 4, Y: rng.Float64()*40 - 4, Fixed: true})
		}
		d.Fences = append(d.Fences, netlist.Fence{Name: "f", Rect: geom.RectWH(0, 0, 16, 16)})
		if _, err := Legalize(d, DefaultConfig()); err != nil {
			continue
		}
		for i := range d.Cells {
			c := &d.Cells[i]
			if c.Fixed {
				continue
			}
			switch rng.Intn(40) {
			case 0: // onto a random spot, likely a macro
				c.X, c.Y = float64(rng.Intn(120))*0.25, float64(rng.Intn(31))
			case 1:
				c.Y += 0.5
			case 2:
				c.X += 0.1
			case 3:
				c.X = 31.5 + rng.Float64()
			case 4:
				c.Fence = 1
			case 5:
				c.X, c.Y = rng.Float64()*32, rng.Float64()*32
			}
		}
		for _, max := range []int{0, 1, 3} {
			got, want := Check(d, max), checkReference(d, max)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d max %d: Check = %v\nreference %v", trial, max, got, want)
			}
			if max == 0 {
				for _, v := range got {
					kinds[v.Kind]++
				}
			}
		}
	}
	t.Logf("violations by kind: %v", kinds)
	for _, k := range []string{"row", "site", "region", "fence", "overlap", "fixed-overlap"} {
		if kinds[k] == 0 {
			t.Errorf("no %s violation was seeded; the comparison proves too little (%v)", k, kinds)
		}
	}
}
