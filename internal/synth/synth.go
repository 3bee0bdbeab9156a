// Package synth generates synthetic industrial-style placement benchmarks.
//
// The paper evaluates on ten proprietary industrial designs (Table I) that
// cannot be redistributed. This generator reproduces each design's
// *relative* statistics — macro count, cell/net/pin ratios, macro
// floorplan style, and routability stress (power-grid blockage density) —
// at a configurable scale, so the comparative experiments of Table II keep
// their shape: which designs are routable, which placer wins, and by
// roughly how much. Netlist locality follows a windowed cluster model: a
// net picks its pins within an index window whose size follows the
// profile's locality, producing the Rent-style clustering real designs
// exhibit.
//
// Everything is deterministic given (profile, scale, seed), on every
// architecture: each product that feeds an addition is converted, as in
// float64(x*y) + z, so arm64 does not fuse it into a multiply-add.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// MacroStyle describes how fixed macros are floorplanned.
type MacroStyle int

// Macro floorplan styles.
const (
	MacroRing      MacroStyle = iota // big blocks along the periphery
	MacroScattered                   // many small blocks across the core
)

// Profile is the recipe for one benchmark. Counts are the paper's Table-I
// values (divide by Scale when generating).
type Profile struct {
	Name   string
	Macros int
	Cells  int // movable standard cells
	Nets   int
	Pins   int // pins of movable cells

	// Stress in [0, 1] sets the power-grid blockage density; it encodes
	// how routability-challenged the design is in Table II.
	Stress float64
	// Locality in [0, 1] is the fraction of nets confined to a small
	// cluster window.
	Locality float64
	// Util is the placement-row utilization target.
	Util  float64
	Style MacroStyle
}

// Profiles mirrors the paper's Table I: the ten industrial designs with
// their published statistics and a stress level inferred from the
// overflow columns of Table II (MEDIA_SUBSYS and A53_ADB_WRAP are the
// congested ones; MEDIA_PG_MODIFY is the same netlist with a relaxed
// power grid).
var Profiles = []Profile{
	{Name: "OR1200", Macros: 22, Cells: 122_000, Nets: 193_000, Pins: 660_000, Stress: 0.45, Locality: 0.78, Util: 0.70, Style: MacroRing},
	{Name: "ASIC_ENTITY", Macros: 45, Cells: 149_000, Nets: 155_000, Pins: 630_000, Stress: 0.25, Locality: 0.82, Util: 0.65, Style: MacroRing},
	{Name: "BIT_COIN", Macros: 43, Cells: 760_000, Nets: 760_000, Pins: 3_151_000, Stress: 0.15, Locality: 0.85, Util: 0.65, Style: MacroRing},
	{Name: "MEDIA_SUBSYS", Macros: 70, Cells: 1_228_000, Nets: 1_296_000, Pins: 5_235_000, Stress: 0.85, Locality: 0.72, Util: 0.74, Style: MacroRing},
	{Name: "MEDIA_PG_MODIFY", Macros: 70, Cells: 1_228_000, Nets: 1_296_000, Pins: 5_235_000, Stress: 0.40, Locality: 0.72, Util: 0.74, Style: MacroRing},
	{Name: "A53_ADB_WRAP", Macros: 7, Cells: 1_232_000, Nets: 1_300_000, Pins: 5_242_000, Stress: 0.80, Locality: 0.70, Util: 0.74, Style: MacroRing},
	{Name: "CT_SCAN", Macros: 39, Cells: 1_249_000, Nets: 1_317_000, Pins: 5_282_000, Stress: 0.20, Locality: 0.84, Util: 0.65, Style: MacroRing},
	{Name: "CT_TOP", Macros: 38, Cells: 1_270_000, Nets: 1_272_000, Pins: 4_091_000, Stress: 0.15, Locality: 0.86, Util: 0.62, Style: MacroRing},
	{Name: "E31_ECOREPLEX", Macros: 56, Cells: 1_533_000, Nets: 1_537_000, Pins: 6_303_000, Stress: 0.20, Locality: 0.84, Util: 0.64, Style: MacroRing},
	{Name: "OPENC910", Macros: 332, Cells: 1_590_000, Nets: 1_741_000, Pins: 7_276_000, Stress: 0.55, Locality: 0.76, Util: 0.70, Style: MacroScattered},
}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("synth: unknown profile %q", name)
}

// Generate builds the design for profile p at the given scale divisor
// (e.g. scale 400 turns 1.2M cells into 3k). Counts below the floor are
// clamped so tiny scales remain usable.
func Generate(p Profile, scale int, seed int64) *netlist.Design {
	if scale < 1 {
		scale = 1
	}
	nCells := maxInt(p.Cells/scale, 60)
	nNets := maxInt(p.Nets/scale, 50)
	nPins := maxInt(p.Pins/scale, 2*nNets)
	// Macro count shrinks much more gently than cell count (macro area is
	// a fixed fraction of the die, so the count mostly sets granularity):
	// a 1:800 OPENC910 still wants dozens of macros, not 332 and not 4.
	nMacros := p.Macros
	if scale > 1 {
		div := maxInt(scale/150, 1)
		nMacros = minInt(p.Macros, clampInt(p.Macros/div, 3, 64))
	}

	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{
		Name:      p.Name,
		RowHeight: 1,
		SiteWidth: 0.25,
		Layers:    netlist.DefaultLayers(),
	}

	// Cell sizes: widths of 2–10 sites, biased small, one row tall.
	widths := make([]float64, nCells)
	cellArea := 0.0
	for i := range widths {
		sites := 2 + rng.Intn(6)
		if rng.Float64() < 0.08 {
			sites += rng.Intn(8) // occasional wide cell
		}
		widths[i] = float64(sites) * d.SiteWidth
		cellArea += float64(widths[i] * d.RowHeight)
	}

	// Region sizing: macros get ~18% of the die; rows hold cells at Util.
	macroFrac := 0.18
	regionArea := cellArea/p.Util + cellArea/p.Util*macroFrac/(1-macroFrac)
	side := math.Sqrt(regionArea)
	rows := maxInt(int(side/d.RowHeight), 8)
	width := regionArea / (float64(rows) * d.RowHeight)
	width = float64(math.Ceil(width/d.SiteWidth) * d.SiteWidth)
	d.Region = geom.RectWH(0, 0, width, float64(float64(rows)*d.RowHeight))

	placeMacros(d, rng, nMacros, macroFrac, p.Style)

	// Movable cells; initial positions at the region center (global
	// placement provides the real initial state). Center halves a sum, a
	// product arm64 would fuse into the subtractions below; the
	// conversions round it on its own.
	c := d.Region.Center()
	cx, cy := float64(c.X), float64(c.Y)
	firstCell := len(d.Cells)
	for i := 0; i < nCells; i++ {
		d.AddCell(netlist.Cell{
			Name: fmt.Sprintf("c%d", i),
			W:    widths[i], H: d.RowHeight,
			X: cx - float64(widths[i]/2), Y: cy - float64(d.RowHeight/2),
		})
	}

	generateNets(d, rng, p, firstCell, nCells, nNets, nPins)
	calibrateLayers(d, p, firstCell, nCells)
	addPowerGrid(d, rng, p.Stress)
	return d
}

// calibrateLayers sizes the metal stack so the design presents a
// scale-invariant routability challenge. Real designs route at high track
// utilization; a naively scaled-down netlist would swim in capacity (the
// demand per Gcell falls with √cells while a fixed stack's capacity does
// not). The calibration estimates the routed demand of a "natural"
// placement — cells laid out row-major in netlist-cluster order — and sets
// the track pitches so the average Gcell utilization hits a target that
// grows with the profile's stress. Hotspots from clustering and macro/PG
// blockage then push the stressed designs over 100% locally, exactly the
// regime the paper's Table II explores.
func calibrateLayers(d *netlist.Design, p Profile, firstCell, nCells int) {
	// Isotropic demand estimate: a net whose pins span an index window
	// covering fraction f of the cells will, in a locality-preserving
	// placement, occupy a region of area fraction ~f, i.e. a box of side
	// √f in each dimension. The expected bbox of k uniform points in a
	// unit box spans (k-1)/(k+1) per side.
	hx, hy := 0.0, 0.0
	for n := range d.Nets {
		pins := d.Nets[n].Pins
		if len(pins) < 2 {
			continue
		}
		loIdx, hiIdx := 1<<62, -1
		for _, pid := range pins {
			k := d.Pins[pid].Cell - firstCell
			if k < loIdx {
				loIdx = k
			}
			if k > hiIdx {
				hiIdx = k
			}
		}
		span := hiIdx - loIdx
		// Index windows wrap, so a "span" above half the cells is really
		// the complement.
		if span > nCells/2 {
			span = nCells - span
		}
		f := math.Min(1, float64(span+1)/float64(nCells))
		k := float64(len(pins))
		c := (k - 1) / (k + 1)
		side := math.Sqrt(f)
		hx += float64(side * d.Region.W() * c)
		hy += float64(side * d.Region.H() * c)
	}

	// Gcell grid matching the evaluation router's default sizing.
	gw := clampInt(int(d.Region.W()/(2*d.RowHeight)), 16, 512)
	gh := clampInt(int(d.Region.H()/(2*d.RowHeight)), 16, 512)
	gcellW := d.Region.W() / float64(gw)
	gcellH := d.Region.H() / float64(gh)
	cells := float64(gw * gh)

	// Average crossings per Gcell if demand were uniform.
	demandH := hx / gcellW / cells
	demandV := hy / gcellH / cells

	// Routed demand exceeds the bbox estimate: global placement mixes
	// clusters, Steiner trees add branches, and negotiation detours around
	// hotspots. The factor was measured against the evaluation router on
	// the generated suite.
	const routedVsEstimate = 2.2
	demandH = float64(demandH * routedVsEstimate)
	demandV = float64(demandV * routedVsEstimate)

	// Pin-access demand (matching the evaluation router's PinCost model):
	// every pin consumes local tracks in both directions.
	const pinCost = 0.4
	pinAvg := float64(len(d.Pins)) * pinCost / cells
	demandH += pinAvg
	demandV += pinAvg

	// Target average utilization: calm designs have headroom, stressed
	// ones run hot before the PG grid eats more.
	util := 0.38 + float64(0.30*p.Stress)
	capH := math.Max(demandH/util, 2)
	capV := math.Max(demandV/util, 2)

	// Three layers per direction share the capacity evenly.
	pitchH := 3 * gcellH / capH
	pitchV := 3 * gcellW / capV
	d.Layers = []netlist.Layer{
		{Name: "M1", Dir: netlist.Horizontal, Width: pitchH / 2, Spacing: pitchH / 2},
		{Name: "M2", Dir: netlist.Vertical, Width: pitchV / 2, Spacing: pitchV / 2},
		{Name: "M3", Dir: netlist.Horizontal, Width: pitchH / 2, Spacing: pitchH / 2},
		{Name: "M4", Dir: netlist.Vertical, Width: pitchV / 2, Spacing: pitchV / 2},
		{Name: "M5", Dir: netlist.Horizontal, Width: pitchH / 2, Spacing: pitchH / 2},
		{Name: "M6", Dir: netlist.Vertical, Width: pitchV / 2, Spacing: pitchV / 2},
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// placeMacros floorplans fixed macros without overlap.
func placeMacros(d *netlist.Design, rng *rand.Rand, n int, areaFrac float64, style MacroStyle) {
	if n == 0 {
		return
	}
	region := d.Region
	totalArea := region.Area() * areaFrac
	each := totalArea / float64(n)
	base := math.Sqrt(each)

	var spots []geom.Point
	switch style {
	case MacroScattered:
		// Jittered grid over the whole core.
		cols := maxInt(int(math.Ceil(math.Sqrt(float64(n)*region.W()/region.H()))), 1)
		rows := (n + cols - 1) / cols
		dx := region.W() / float64(cols)
		dy := region.H() / float64(rows)
		for r := 0; r < rows && len(spots) < n; r++ {
			for cc := 0; cc < cols && len(spots) < n; cc++ {
				spots = append(spots, geom.Pt(
					region.Lo.X+float64((float64(cc)+0.5)*dx),
					region.Lo.Y+float64((float64(r)+0.5)*dy)))
			}
		}
	default: // MacroRing: perimeter band
		per := 2 * (region.W() + region.H())
		step := per / float64(n)
		inset := float64(base * 0.75)
		for k := 0; k < n; k++ {
			t := float64((float64(k) + 0.5) * step)
			var pt geom.Point
			switch {
			case t < region.W():
				pt = geom.Pt(region.Lo.X+t, region.Lo.Y+inset)
			case t < region.W()+region.H():
				pt = geom.Pt(region.Hi.X-inset, region.Lo.Y+(t-region.W()))
			case t < 2*region.W()+region.H():
				pt = geom.Pt(region.Hi.X-(t-region.W()-region.H()), region.Hi.Y-inset)
			default:
				pt = geom.Pt(region.Lo.X+inset, region.Hi.Y-(t-2*region.W()-region.H()))
			}
			spots = append(spots, pt)
		}
	}

	var placed []geom.Rect
	for k, pt := range spots {
		w := float64(base * (0.7 + float64(0.6*rng.Float64())))
		h := each / w
		// Snap to rows and keep inside the region.
		h = math.Max(2*d.RowHeight, math.Round(h/d.RowHeight)*d.RowHeight)
		r := geom.RectWH(pt.X-float64(w/2), pt.Y-float64(h/2), w, h)
		shift := r.Intersect(region)
		if shift.Area() < r.Area() {
			// Push back inside.
			r = geom.RectWH(
				geom.Clamp(r.Lo.X, region.Lo.X, region.Hi.X-w),
				geom.Clamp(r.Lo.Y, region.Lo.Y, region.Hi.Y-h), w, h)
		}
		// Shrink on collision with already placed macros rather than
		// searching: keeps determinism and never loops.
		for _, q := range placed {
			if r.Overlaps(q) {
				iv := r.Intersect(q)
				if iv.W() < iv.H() {
					if r.Center().X < q.Center().X {
						r.Hi.X -= iv.W()
					} else {
						r.Lo.X += iv.W()
					}
				} else {
					if r.Center().Y < q.Center().Y {
						r.Hi.Y -= iv.H()
					} else {
						r.Lo.Y += iv.H()
					}
				}
			}
		}
		if r.W() < d.SiteWidth || r.H() < d.RowHeight {
			continue
		}
		// Shrinking resolves most collisions, but a spot fully inside an
		// earlier macro cannot be saved — drop it.
		collides := false
		for _, q := range placed {
			if r.Overlaps(q) {
				collides = true
				break
			}
		}
		if collides {
			continue
		}
		placed = append(placed, r)
		d.AddCell(netlist.Cell{
			Name: fmt.Sprintf("MACRO_%d", k),
			W:    r.W(), H: r.H(), X: r.Lo.X, Y: r.Lo.Y,
			Fixed: true, Macro: true,
		})
		// Macros block the lower routing layers over their footprint.
		for l := 0; l < 3 && l < len(d.Layers); l++ {
			d.Blockages = append(d.Blockages, netlist.Blockage{Rect: r, Layer: l})
		}
	}
}

// generateNets builds nNets hyperedges over the movable cells with the
// profile's locality, targeting nPins total pins.
func generateNets(d *netlist.Design, rng *rand.Rand, p Profile, firstCell, nCells, nNets, nPins int) {
	if nCells < 2 {
		return
	}
	pinsLeft := nPins
	smallWin := maxInt(nCells/64, 8)
	midWin := maxInt(nCells/8, 32)

	// Pin-density hotspots: a few contiguous index bands (control-logic
	// style clusters) attract a disproportionate share of net centers.
	// Because index locality becomes physical locality after placement,
	// these bands turn into the local routing hotspots that cell padding
	// exists to dissolve — packed, pin-dense neighbourhoods.
	nBands := 3 + int(3*p.Stress)
	bandW := maxInt(nCells/25, 4)
	type band struct{ lo, hi int }
	bands := make([]band, nBands)
	for b := range bands {
		lo := rng.Intn(nCells)
		bands[b] = band{lo: lo, hi: lo + bandW}
	}
	hotCenter := func() int {
		b := bands[rng.Intn(len(bands))]
		return (b.lo + rng.Intn(bandW)) % nCells
	}

	pinOffset := func(ci int) (float64, float64) {
		c := &d.Cells[ci]
		return c.W * (0.1 + float64(0.8*rng.Float64())), c.H * (0.25 + float64(0.5*rng.Float64()))
	}

	for n := 0; n < nNets; n++ {
		netsLeft := nNets - n
		// Degree targeting the remaining pins-per-net average.
		mean := float64(pinsLeft) / float64(netsLeft)
		k := 2
		if mean > 2 {
			// Geometric-ish around the mean, capped.
			k = 2 + int(rng.ExpFloat64()*(mean-2))
			if k > 24 {
				k = 24
			}
		}
		if rng.Float64() < 0.002 {
			k = 24 + rng.Intn(40) // rare high-fanout (clock/reset-like)
		}
		if k > pinsLeft-2*(netsLeft-1) && netsLeft > 1 {
			k = maxInt(2, pinsLeft-2*(netsLeft-1))
		}

		// Window selection by locality.
		var win int
		switch u := rng.Float64(); {
		case u < p.Locality:
			win = smallWin
		case u < p.Locality+float64(0.7*(1-p.Locality)):
			win = midWin
		default:
			win = nCells
		}
		center := rng.Intn(nCells)
		if rng.Float64() < 0.28+float64(0.18*p.Stress) {
			center = hotCenter()
		}
		nid := d.AddNet(fmt.Sprintf("n%d", n), 1)
		seen := map[int]bool{}
		for pin := 0; pin < k; pin++ {
			off := rng.Intn(2*win+1) - win
			ci := center + off
			if ci < 0 {
				ci += nCells
			}
			ci %= nCells
			// Avoid duplicate cells on one net where possible.
			for tries := 0; seen[ci] && tries < 4; tries++ {
				ci = (ci + 1 + rng.Intn(win+1)) % nCells
			}
			seen[ci] = true
			dx, dy := pinOffset(firstCell + ci)
			d.Connect(firstCell+ci, nid, dx, dy)
			pinsLeft--
		}
	}
}

// addPowerGrid lays power/ground stripe blockages whose density follows
// the profile's stress level; dense grids eat routing capacity exactly the
// way an unoptimized PG does in the MEDIA_SUBSYS vs MEDIA_PG_MODIFY pair.
func addPowerGrid(d *netlist.Design, rng *rand.Rand, stress float64) {
	if stress <= 0 {
		return
	}
	region := d.Region
	// Vertical stripes on M4 (vertical layer) and horizontal on M3.
	cover := 0.10 + float64(0.55*stress) // fraction of the layer consumed
	pitchV := math.Max(region.W()/80, 4*d.SiteWidth) / math.Max(cover*2, 0.2)
	wV := float64(pitchV * cover)
	for x := region.Lo.X + float64(pitchV/2); x < region.Hi.X; x += pitchV {
		d.Blockages = append(d.Blockages, netlist.Blockage{
			Rect: geom.RectWH(x-float64(wV/2), region.Lo.Y, wV, region.H()), Layer: 3,
		})
	}
	pitchH := math.Max(region.H()/80, 4*d.RowHeight) / math.Max(cover*2, 0.2)
	wH := float64(pitchH * cover)
	for y := region.Lo.Y + float64(pitchH/2); y < region.Hi.Y; y += pitchH {
		d.Blockages = append(d.Blockages, netlist.Blockage{
			Rect: geom.RectWH(region.Lo.X, y-float64(wH/2), region.W(), wH), Layer: 2,
		})
	}
	// High-stress designs additionally lose part of the top layers to
	// pre-routed special nets.
	if stress > 0.6 {
		for k := 0; k < int(10*stress); k++ {
			x := region.Lo.X + float64(rng.Float64()*region.W()*0.9)
			d.Blockages = append(d.Blockages, netlist.Blockage{
				Rect: geom.RectWH(x, region.Lo.Y, float64(region.W()*0.02), region.H()), Layer: 5,
			})
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func intSqrt(n int) int {
	return maxInt(int(math.Sqrt(float64(n))), 1)
}
