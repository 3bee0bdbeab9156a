// Package cong implements the routing-congestion model of the paper
// (Secs. II-C and III-A): the Gcell grid and blockage-aware routing
// capacity (Eq. 8), probabilistic routing-demand estimation from RSMT
// topologies, the detour-imitating demand expansion, and the signed
// congestion map (Eqs. 10–11) consumed by feature extraction.
//
// The same Map type carries estimated demand during placement and actual
// routed demand when the evaluation router (package router) reports
// overflow, so the two stages share one definition of congestion.
package cong

import (
	"fmt"
	"math"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// Map is a Gcell grid with per-Gcell directional routing capacity and
// demand. Gcells are indexed [j*W+i], i being the x (column) index.
type Map struct {
	W, H   int
	Region geom.Rect
	GW, GH float64 // Gcell size

	CapH, CapV []float64 // routing capacity (tracks) per Gcell, Eq. 8
	DmdH, DmdV []float64 // routing demand per Gcell

	Pins  []float64 // pin count per Gcell
	Sites []float64 // available placement sites per Gcell (blockage-aware)
}

// NewMap creates a W×H Gcell map over the design's region and computes the
// blockage-aware routing capacity per Eq. 8: per-layer track counts from
// the technology stack minus capacity blocked by macros, PG stripes, and
// other blockages.
func NewMap(d *netlist.Design, w, h int) *Map {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("cong: invalid grid %dx%d", w, h))
	}
	m := &Map{
		W: w, H: h, Region: d.Region,
		GW: d.Region.W() / float64(w),
		GH: d.Region.H() / float64(h),
	}
	size := w * h
	m.CapH = make([]float64, size)
	m.CapV = make([]float64, size)
	m.DmdH = make([]float64, size)
	m.DmdV = make([]float64, size)
	m.Pins = make([]float64, size)
	m.Sites = make([]float64, size)

	// Basic capacity: horizontal tracks stack vertically (Gcell height /
	// pitch), vertical tracks stack horizontally.
	var baseH, baseV float64
	for _, l := range d.Layers {
		if l.Dir == netlist.Horizontal {
			baseH += m.GH / l.Pitch()
		} else {
			baseV += m.GW / l.Pitch()
		}
	}
	for i := range m.CapH {
		m.CapH[i] = baseH
		m.CapV[i] = baseV
	}

	// Deduct blocked capacity (second term of Eq. 8): each blockage
	// removes the tracks it covers on its layer, prorated by the overlap
	// along the track direction.
	for _, b := range d.Blockages {
		l := d.Layers[b.Layer]
		m.forEachOverlap(b.Rect, func(idx int, ox, oy float64) {
			if l.Dir == netlist.Horizontal {
				m.CapH[idx] -= (oy / l.Pitch()) * (ox / m.GW)
			} else {
				m.CapV[idx] -= (ox / l.Pitch()) * (oy / m.GH)
			}
		})
	}
	// Macros additionally block placement sites; site capacity feeds the
	// pin-density feature.
	siteArea := d.SiteWidth * d.RowHeight
	if siteArea <= 0 {
		siteArea = 1
	}
	gcellSites := m.GW * m.GH / siteArea
	for i := range m.Sites {
		m.Sites[i] = gcellSites
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Fixed {
			continue
		}
		m.forEachOverlap(c.Rect(), func(idx int, ox, oy float64) {
			m.Sites[idx] -= ox * oy / siteArea
		})
	}
	for i := range m.CapH {
		m.CapH[i] = math.Max(0, m.CapH[i])
		m.CapV[i] = math.Max(0, m.CapV[i])
		m.Sites[i] = math.Max(0, m.Sites[i])
	}
	return m
}

// Index returns the flat Gcell index for column i, row j.
func (m *Map) Index(i, j int) int { return j*m.W + i }

// GcellOf returns the clamped Gcell coordinates containing p.
func (m *Map) GcellOf(p geom.Point) (int, int) {
	i := int((p.X - m.Region.Lo.X) / m.GW)
	j := int((p.Y - m.Region.Lo.Y) / m.GH)
	return geom.ClampInt(i, 0, m.W-1), geom.ClampInt(j, 0, m.H-1)
}

// GcellRect returns the extent of Gcell (i, j).
func (m *Map) GcellRect(i, j int) geom.Rect {
	return geom.RectWH(
		m.Region.Lo.X+float64(i)*m.GW,
		m.Region.Lo.Y+float64(j)*m.GH,
		m.GW, m.GH)
}

// GcellCenter returns the center of Gcell (i, j).
func (m *Map) GcellCenter(i, j int) geom.Point {
	return geom.Pt(
		m.Region.Lo.X+(float64(i)+0.5)*m.GW,
		m.Region.Lo.Y+(float64(j)+0.5)*m.GH)
}

// forEachOverlap invokes fn for every Gcell overlapping r with the overlap
// extents in x and y.
func (m *Map) forEachOverlap(r geom.Rect, fn func(idx int, ox, oy float64)) {
	r = r.Intersect(m.Region)
	if r.Empty() {
		return
	}
	i0 := geom.ClampInt(int((r.Lo.X-m.Region.Lo.X)/m.GW), 0, m.W-1)
	i1 := geom.ClampInt(int(math.Ceil((r.Hi.X-m.Region.Lo.X)/m.GW)), i0+1, m.W)
	j0 := geom.ClampInt(int((r.Lo.Y-m.Region.Lo.Y)/m.GH), 0, m.H-1)
	j1 := geom.ClampInt(int(math.Ceil((r.Hi.Y-m.Region.Lo.Y)/m.GH)), j0+1, m.H)
	for j := j0; j < j1; j++ {
		y0 := m.Region.Lo.Y + float64(j)*m.GH
		oy := geom.Interval{Lo: y0, Hi: y0 + m.GH}.Overlap(geom.Interval{Lo: r.Lo.Y, Hi: r.Hi.Y})
		if oy <= 0 {
			continue
		}
		for i := i0; i < i1; i++ {
			x0 := m.Region.Lo.X + float64(i)*m.GW
			ox := geom.Interval{Lo: x0, Hi: x0 + m.GW}.Overlap(geom.Interval{Lo: r.Lo.X, Hi: r.Hi.X})
			if ox > 0 {
				fn(j*m.W+i, ox, oy)
			}
		}
	}
}

// CgH returns the signed horizontal congestion of Gcell idx (Eq. 11).
func (m *Map) CgH(idx int) float64 {
	return (m.DmdH[idx] - m.CapH[idx]) / math.Max(m.CapH[idx], 1)
}

// CgV returns the signed vertical congestion of Gcell idx (Eq. 11).
func (m *Map) CgV(idx int) float64 {
	return (m.DmdV[idx] - m.CapV[idx]) / math.Max(m.CapV[idx], 1)
}

// Cg combines the directional congestion of Gcell idx per Eq. 10: when the
// signs differ the worse direction dominates; when they agree the values
// accumulate.
func (m *Map) Cg(idx int) float64 {
	h, v := m.CgH(idx), m.CgV(idx)
	if h*v < 0 {
		return math.Max(h, v)
	}
	return h + v
}

// OverflowH returns the positive overflow of Gcell idx in the horizontal
// direction (Eq. 7 restated as demand minus capacity).
func (m *Map) OverflowH(idx int) float64 {
	return math.Max(0, m.DmdH[idx]-m.CapH[idx])
}

// OverflowV returns the positive vertical overflow of Gcell idx.
func (m *Map) OverflowV(idx int) float64 {
	return math.Max(0, m.DmdV[idx]-m.CapV[idx])
}

// OverflowRatios returns the horizontal and vertical overflow ratios in
// percent: total overflowed demand over total capacity, the "HOF"/"VOF"
// metric of Table II.
func (m *Map) OverflowRatios() (hof, vof float64) {
	var oh, ov, ch, cv float64
	for i := range m.DmdH {
		oh += m.OverflowH(i)
		ov += m.OverflowV(i)
		ch += m.CapH[i]
		cv += m.CapV[i]
	}
	if ch > 0 {
		hof = 100 * oh / ch
	}
	if cv > 0 {
		vof = 100 * ov / cv
	}
	return hof, vof
}

// PinDensity returns pins per available site in Gcell idx.
func (m *Map) PinDensity(idx int) float64 {
	return m.Pins[idx] / math.Max(m.Sites[idx], 1)
}

// MapStats summarizes a congestion map: peak directional congestion, how
// many Gcells overflow, and the worst single-Gcell overflow in tracks.
// Used by the Fig.-5 reporting to compare maps quantitatively.
type MapStats struct {
	MaxCgH, MaxCgV     float64
	HotH, HotV         int // Gcells with positive overflow
	WorstH, WorstV     float64
	TotalDmdH          float64
	TotalDmdV          float64
	AvgUtilH, AvgUtilV float64
}

// Stats computes summary statistics of the map.
func (m *Map) Stats() MapStats {
	s := MapStats{MaxCgH: math.Inf(-1), MaxCgV: math.Inf(-1)}
	var capH, capV float64
	for i := range m.DmdH {
		if v := m.CgH(i); v > s.MaxCgH {
			s.MaxCgH = v
		}
		if v := m.CgV(i); v > s.MaxCgV {
			s.MaxCgV = v
		}
		if o := m.OverflowH(i); o > 0 {
			s.HotH++
			if o > s.WorstH {
				s.WorstH = o
			}
		}
		if o := m.OverflowV(i); o > 0 {
			s.HotV++
			if o > s.WorstV {
				s.WorstV = o
			}
		}
		s.TotalDmdH += m.DmdH[i]
		s.TotalDmdV += m.DmdV[i]
		capH += m.CapH[i]
		capV += m.CapV[i]
	}
	if capH > 0 {
		s.AvgUtilH = s.TotalDmdH / capH
	}
	if capV > 0 {
		s.AvgUtilV = s.TotalDmdV / capV
	}
	return s
}
