// Package netlist defines the placement database shared by every stage of
// the PUFFER flow: the circuit hypergraph H = (V, E) of cells and nets, pin
// geometry, placement rows and sites, the metal-layer technology stack, and
// routing blockages.
//
// The database uses index-based references throughout (cell, net, and pin
// IDs are indices into the Design slices) so that hot loops in the placer
// and router never chase pointers or hash names.
package netlist

import (
	"fmt"

	"puffer/internal/geom"
)

// Dir is a preferred routing direction of a metal layer.
type Dir uint8

// Routing directions.
const (
	Horizontal Dir = iota
	Vertical
)

func (d Dir) String() string {
	if d == Horizontal {
		return "H"
	}
	return "V"
}

// Layer describes one metal layer of the technology stack. Width and
// Spacing are in the same database units as cell coordinates; together they
// determine how many routing tracks fit across a Gcell (paper Eq. 8).
type Layer struct {
	Name    string
	Dir     Dir
	Width   float64 // minimum wire width
	Spacing float64 // minimum wire-to-wire spacing
}

// Pitch returns the track pitch (wire width + spacing) of the layer.
func (l Layer) Pitch() float64 { return l.Width + l.Spacing }

// Blockage is a rectangular routing obstruction on a specific layer: macro
// over-cell obstructions, power/ground stripes, or pin-access keep-outs.
type Blockage struct {
	Rect  geom.Rect
	Layer int // index into Design.Layers
}

// Fence is a rectangular placement region constraint: cells assigned to a
// fence must be placed entirely inside its rectangle (the "region
// constraints" of detailed-routing-driven placement flows).
type Fence struct {
	Name string
	Rect geom.Rect
}

// Cell is a placeable instance. Fixed cells (macros, pre-placed blocks,
// IO pads) contribute density and blockage but are never moved.
type Cell struct {
	Name  string
	W, H  float64 // physical size
	X, Y  float64 // lower-left corner of the physical outline
	Fixed bool
	Macro bool // fixed macro block (counts in the "#Macros" statistic)

	// Fence is a 1-based index into Design.Fences constraining where the
	// cell may be placed; 0 means unconstrained.
	Fence int

	// PadW is the total extra width added by the routability optimizer
	// (paper Sec. III-B). The padding is split evenly between the left and
	// right side of the cell, so the padded outline is
	// [X-PadW/2, X+W+PadW/2] x [Y, Y+H].
	PadW float64

	Pins []int // pin IDs owned by this cell
}

// Rect returns the physical outline of the cell.
func (c *Cell) Rect() geom.Rect { return geom.RectWH(c.X, c.Y, c.W, c.H) }

// PaddedRect returns the outline including routability padding, which is
// what density and legalization see. (The halving compiles to a multiply,
// converted so no architecture fuses it into the subtraction; likewise in
// SetCenter.)
func (c *Cell) PaddedRect() geom.Rect {
	return geom.RectWH(c.X-float64(c.PadW/2), c.Y, c.W+c.PadW, c.H)
}

// PaddedW returns the effective width including padding.
func (c *Cell) PaddedW() float64 { return c.W + c.PadW }

// Area returns the physical area of the cell.
func (c *Cell) Area() float64 { return c.W * c.H }

// Center returns the center of the physical outline.
func (c *Cell) Center() geom.Point {
	return geom.Pt(c.X+c.W/2, c.Y+c.H/2)
}

// SetCenter moves the cell so its physical center is at p.
func (c *Cell) SetCenter(p geom.Point) {
	c.X = p.X - float64(c.W/2)
	c.Y = p.Y - float64(c.H/2)
}

// Pin connects a cell to a net at a fixed offset from the cell's lower-left
// corner.
type Pin struct {
	Cell   int // owning cell ID
	Net    int // net ID
	Dx, Dy float64
}

// Net is a hyperedge over two or more pins.
type Net struct {
	Name   string
	Pins   []int // pin IDs
	Weight float64
}

// Row is one placement row: a horizontal strip of sites of uniform height.
type Row struct {
	X, Y  float64 // lower-left corner
	W     float64 // total row width
	SiteW float64 // site (placement grid) width
}

// NumSites returns the number of whole sites in the row.
func (r Row) NumSites() int { return int(r.W / r.SiteW) }

// Design is the full placement database.
type Design struct {
	Name   string
	Region geom.Rect // placement (core) region

	Cells []Cell
	Nets  []Net
	Pins  []Pin

	Rows      []Row
	Layers    []Layer
	Blockages []Blockage
	Fences    []Fence

	RowHeight float64
	SiteWidth float64
}

// Stats summarizes a design the way the paper's Table I does.
type Stats struct {
	Macros   int // fixed macros
	Cells    int // movable standard cells
	Nets     int
	Pins     int // pins of movable cells
	CellArea float64
	FreeArea float64 // region area minus fixed-cell overlap
}

// Stats computes the Table-I statistics of the design.
func (d *Design) Stats() Stats {
	var s Stats
	fixedArea := 0.0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Macro {
			s.Macros++
		}
		if c.Fixed {
			fixedArea += c.Rect().OverlapArea(d.Region)
			continue
		}
		s.Cells++
		s.Pins += len(c.Pins)
		s.CellArea += c.Area()
	}
	s.Nets = len(d.Nets)
	s.FreeArea = d.Region.Area() - fixedArea
	return s
}

// PinPos returns the absolute position of pin p given current cell
// locations.
func (d *Design) PinPos(p int) geom.Point {
	pin := &d.Pins[p]
	c := &d.Cells[pin.Cell]
	return geom.Pt(c.X+pin.Dx, c.Y+pin.Dy)
}

// NetBBox returns the bounding box of all pins of net n.
func (d *Design) NetBBox(n int) geom.Rect {
	net := &d.Nets[n]
	if len(net.Pins) == 0 {
		return geom.Rect{}
	}
	p0 := d.PinPos(net.Pins[0])
	lo, hi := p0, p0
	for _, pid := range net.Pins[1:] {
		p := d.PinPos(pid)
		// The builtins give math.Min's and math.Max's results for NaN, ±0
		// and ±Inf, without the call.
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// HPWL returns the total weighted half-perimeter wirelength of the design.
func (d *Design) HPWL() float64 {
	total := 0.0
	for n := range d.Nets {
		w := d.Nets[n].Weight
		if w == 0 {
			w = 1
		}
		bb := d.NetBBox(n)
		total += w * (bb.W() + bb.H())
	}
	return total
}

// MovableIDs returns the IDs of all movable cells.
func (d *Design) MovableIDs() []int {
	ids := make([]int, 0, len(d.Cells))
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ids = append(ids, i)
		}
	}
	return ids
}

// TotalMovableArea returns the summed physical area of movable cells.
func (d *Design) TotalMovableArea() float64 {
	area := 0.0
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			area += float64(d.Cells[i].Area())
		}
	}
	return area
}

// TotalPaddingArea returns the summed padding area of movable cells.
func (d *Design) TotalPaddingArea() float64 {
	area := 0.0
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			area += float64(d.Cells[i].PadW * d.Cells[i].H)
		}
	}
	return area
}

// ClearPadding resets the padding of all cells to zero.
func (d *Design) ClearPadding() {
	for i := range d.Cells {
		d.Cells[i].PadW = 0
	}
}

// AddCell appends a cell and returns its ID.
func (d *Design) AddCell(c Cell) int {
	d.Cells = append(d.Cells, c)
	return len(d.Cells) - 1
}

// AddNet appends an empty net and returns its ID.
func (d *Design) AddNet(name string, weight float64) int {
	d.Nets = append(d.Nets, Net{Name: name, Weight: weight})
	return len(d.Nets) - 1
}

// Connect creates a pin attaching cell to net at offset (dx, dy) from the
// cell's lower-left corner and returns the pin ID.
func (d *Design) Connect(cell, net int, dx, dy float64) int {
	id := len(d.Pins)
	d.Pins = append(d.Pins, Pin{Cell: cell, Net: net, Dx: dx, Dy: dy})
	d.Cells[cell].Pins = append(d.Cells[cell].Pins, id)
	d.Nets[net].Pins = append(d.Nets[net].Pins, id)
	return id
}

// Validate checks referential integrity of the database. It is used by
// parsers, the synthetic generator, and tests.
func (d *Design) Validate() error {
	if d.Region.Empty() {
		return fmt.Errorf("design %q: empty placement region", d.Name)
	}
	for i, p := range d.Pins {
		if p.Cell < 0 || p.Cell >= len(d.Cells) {
			return fmt.Errorf("pin %d: bad cell %d", i, p.Cell)
		}
		if p.Net < 0 || p.Net >= len(d.Nets) {
			return fmt.Errorf("pin %d: bad net %d", i, p.Net)
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.W < 0 || c.H < 0 {
			return fmt.Errorf("cell %q: negative size %gx%g", c.Name, c.W, c.H)
		}
		for _, pid := range c.Pins {
			if pid < 0 || pid >= len(d.Pins) {
				return fmt.Errorf("cell %q: bad pin %d", c.Name, pid)
			}
			if d.Pins[pid].Cell != i {
				return fmt.Errorf("cell %q: pin %d owned by cell %d", c.Name, pid, d.Pins[pid].Cell)
			}
		}
	}
	for i := range d.Nets {
		for _, pid := range d.Nets[i].Pins {
			if pid < 0 || pid >= len(d.Pins) {
				return fmt.Errorf("net %q: bad pin %d", d.Nets[i].Name, pid)
			}
			if d.Pins[pid].Net != i {
				return fmt.Errorf("net %q: pin %d belongs to net %d", d.Nets[i].Name, pid, d.Pins[pid].Net)
			}
		}
	}
	for _, b := range d.Blockages {
		if b.Layer < 0 || b.Layer >= len(d.Layers) {
			return fmt.Errorf("blockage references bad layer %d", b.Layer)
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fence < 0 || c.Fence > len(d.Fences) {
			return fmt.Errorf("cell %q: bad fence index %d", c.Name, c.Fence)
		}
		if c.Fence > 0 {
			f := d.Fences[c.Fence-1]
			if f.Rect.W() < c.W || f.Rect.H() < c.H {
				return fmt.Errorf("cell %q does not fit fence %q", c.Name, f.Name)
			}
		}
	}
	return nil
}

// FenceRect returns the placement bounds for cell i: its fence rectangle
// if constrained, else the core region.
func (d *Design) FenceRect(i int) geom.Rect {
	if f := d.Cells[i].Fence; f > 0 && f <= len(d.Fences) {
		return d.Fences[f-1].Rect
	}
	return d.Region
}

// Clone returns a deep copy of the design, so placers can mutate positions
// without sharing state.
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:      d.Name,
		Region:    d.Region,
		RowHeight: d.RowHeight,
		SiteWidth: d.SiteWidth,
		Cells:     append([]Cell(nil), d.Cells...),
		Nets:      append([]Net(nil), d.Nets...),
		Pins:      append([]Pin(nil), d.Pins...),
		Rows:      append([]Row(nil), d.Rows...),
		Layers:    append([]Layer(nil), d.Layers...),
		Blockages: append([]Blockage(nil), d.Blockages...),
		Fences:    append([]Fence(nil), d.Fences...),
	}
	for i := range nd.Cells {
		nd.Cells[i].Pins = append([]int(nil), d.Cells[i].Pins...)
	}
	for i := range nd.Nets {
		nd.Nets[i].Pins = append([]int(nil), d.Nets[i].Pins...)
	}
	return nd
}

// DefaultLayers returns a representative 6-metal technology stack with
// alternating preferred directions, modeled on a generic sub-28nm node.
// Units are arbitrary database units with the site width around 0.2.
func DefaultLayers() []Layer {
	return []Layer{
		{Name: "M1", Dir: Horizontal, Width: 0.05, Spacing: 0.05},
		{Name: "M2", Dir: Vertical, Width: 0.05, Spacing: 0.05},
		{Name: "M3", Dir: Horizontal, Width: 0.05, Spacing: 0.05},
		{Name: "M4", Dir: Vertical, Width: 0.07, Spacing: 0.07},
		{Name: "M5", Dir: Horizontal, Width: 0.07, Spacing: 0.07},
		{Name: "M6", Dir: Vertical, Width: 0.10, Spacing: 0.10},
	}
}
