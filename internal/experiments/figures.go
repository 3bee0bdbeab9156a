package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"

	"puffer"
	"puffer/internal/cong"
	"puffer/internal/feature"
	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// Fig1 renders the Gcell grid-graph model of the global routing problem
// (paper Fig. 1): nodes are Gcells, edges connect abutting Gcells, and
// each carries a routing capacity.
func Fig1() string {
	d := &netlist.Design{
		Name: "fig1", Region: geom.RectWH(0, 0, 16, 16),
		RowHeight: 1, SiteWidth: 0.25, Layers: netlist.DefaultLayers(),
	}
	m := cong.NewMap(d, 4, 4)
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 1: grid graph of the global routing problem (4x4 Gcells)\n")
	fmt.Fprintf(&b, "each node is a Gcell; H/V are its directional track capacities\n\n")
	for j := m.H - 1; j >= 0; j-- {
		for i := 0; i < m.W; i++ {
			idx := m.Index(i, j)
			fmt.Fprintf(&b, "[H%3.0f V%3.0f]", m.CapH[idx], m.CapV[idx])
			if i < m.W-1 {
				fmt.Fprintf(&b, "--")
			}
		}
		fmt.Fprintf(&b, "\n")
		if j > 0 {
			for i := 0; i < m.W; i++ {
				fmt.Fprintf(&b, "     |      ")
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

// Fig2 runs the full PUFFER flow on a small design and returns the staged
// flow trace corresponding to the algorithm-flow figure.
func Fig2(o Options) string {
	o = mergeDefaults(o)
	p, _ := synth.ProfileByName("OR1200")
	d := synth.Generate(p, o.Scale, o.Seed)
	cfg := puffer.DefaultConfig()
	cfg.Place.Seed = o.Seed
	if o.PlaceIters > 0 {
		cfg.Place.MaxIters = o.PlaceIters
	}
	res, err := puffer.Run(d, cfg)
	if err != nil {
		return "FIG 2: flow failed: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 2: PUFFER algorithm flow trace (%s at 1:%d scale)\n", p.Name, o.Scale)
	for _, line := range res.StageLog {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}

// Fig3 demonstrates the congestion estimation of Sec. III-A on a single
// multi-pin net: (a) horizontal demand, (b) vertical demand, and (c) the
// detour-imitating expansion once the straight span is congested.
func Fig3() string {
	d := &netlist.Design{
		Name: "fig3", Region: geom.RectWH(0, 0, 32, 32),
		RowHeight: 1, SiteWidth: 0.25,
		Layers: []netlist.Layer{
			{Name: "M1", Dir: netlist.Horizontal, Width: 1, Spacing: 1},
			{Name: "M2", Dir: netlist.Vertical, Width: 1, Spacing: 1},
		},
	}
	// A 4-pin net forming a T with a Steiner point.
	pins := []geom.Point{{X: 3, Y: 13}, {X: 27, Y: 13}, {X: 15, Y: 27}, {X: 9, Y: 5}}
	var ids []int
	n := d.AddNet("net", 1)
	for _, p := range pins {
		id := d.AddCell(netlist.Cell{W: 1, H: 1, X: p.X - 0.5, Y: p.Y - 0.5})
		ids = append(ids, id)
		d.Connect(id, n, 0.5, 0.5)
	}
	_ = ids

	render := func(m *cong.Map, grid []float64, title string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n", title)
		maxV := 0.0
		for _, v := range grid {
			if v > maxV {
				maxV = v
			}
		}
		shades := " .:-=+*#%@"
		for j := m.H - 1; j >= 0; j-- {
			for i := 0; i < m.W; i++ {
				v := grid[m.Index(i, j)]
				k := 0
				if maxV > 0 {
					k = int(v / maxV * float64(len(shades)-1))
				}
				b.WriteByte(shades[k])
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	var b strings.Builder
	fmt.Fprintf(&b, "FIG 3: congestion estimation for one 4-pin net (16x16 Gcells)\n\n")

	e := cong.NewEstimator(d, 16, 16, cong.Params{PinPenalty: 0})
	m := e.Estimate()
	fmt.Fprintf(&b, "%s\n", render(m, m.DmdH, "(a) horizontal routing demand"))
	fmt.Fprintf(&b, "%s\n", render(m, m.DmdV, "(b) vertical routing demand"))

	// Congest the trunk row and re-estimate with expansion enabled.
	e2 := cong.NewEstimator(d, 16, 16, cong.Params{PinPenalty: 0, ExpandRadius: 3, TransferRatio: 0.5})
	for i := 0; i < 16; i++ {
		idx := e2.M.Index(i, 6)
		e2.M.CapH[idx] = 0.1
	}
	m2 := e2.Estimate()
	fmt.Fprintf(&b, "%s", render(m2, m2.DmdH, "(c) horizontal demand after detour-imitating expansion (row 6 congested)"))
	return b.String()
}

// Fig4 extracts and prints all feature values for one cell in a congested
// neighbourhood, mirroring the paper's feature-extraction illustration.
func Fig4() string {
	d := &netlist.Design{
		Name: "fig4", Region: geom.RectWH(0, 0, 32, 32),
		RowHeight: 1, SiteWidth: 0.25,
		Layers: []netlist.Layer{
			{Name: "M1", Dir: netlist.Horizontal, Width: 1, Spacing: 1},
			{Name: "M2", Dir: netlist.Vertical, Width: 1, Spacing: 1},
		},
	}
	// Dense cluster with crossing nets around the probe cell.
	probe := d.AddCell(netlist.Cell{Name: "probe", W: 1, H: 1, X: 14, Y: 14})
	var others []int
	for k := 0; k < 24; k++ {
		x := 12 + float64(k%6)
		y := 12 + float64(k/6)*1.5
		others = append(others, d.AddCell(netlist.Cell{W: 1, H: 1, X: x, Y: y}))
	}
	for k := 0; k+1 < len(others); k++ {
		n := d.AddNet("", 1)
		d.Connect(others[k], n, 0.5, 0.5)
		d.Connect(others[k+1], n, 0.5, 0.5)
		if k%3 == 0 {
			d.Connect(probe, n, 0.5, 0.5)
		}
	}
	far := d.AddCell(netlist.Cell{W: 1, H: 1, X: 29, Y: 29})
	n := d.AddNet("", 1)
	d.Connect(probe, n, 0.5, 0.5)
	d.Connect(far, n, 0.5, 0.5)

	e := cong.NewEstimator(d, 16, 16, cong.DefaultParams())
	m := e.Estimate()
	feats := feature.Extract(d, m, e.Trees, feature.DefaultParams())

	var b strings.Builder
	fmt.Fprintf(&b, "FIG 4: multi-feature extraction for cell %q\n", "probe")
	fmt.Fprintf(&b, "  %-22s %10s\n", "feature", "value")
	for f := 0; f < feature.Count; f++ {
		kind := "local"
		if f == feature.SurroundCg || f == feature.SurroundPinDensity {
			kind = "CNN-inspired"
		}
		if f == feature.PinCg {
			kind = "GNN-inspired"
		}
		fmt.Fprintf(&b, "  %-22s %10.4f   (%s)\n", feature.Names[f], feats.Vec[probe][f], kind)
	}
	return b.String()
}

// Fig5Maps holds the six congestion maps of Fig. 5: horizontal and
// vertical, for each of the three placers, on the MEDIA_SUBSYS profile.
type Fig5Maps struct {
	Design string
	Placer PlacerName
	H, V   []float64 // per-Gcell overflow
	W, Ht  int
	Stats  cong.MapStats
	HOF    float64
	VOF    float64
}

// Fig5 places MEDIA_SUBSYS with all three placers and collects routed
// congestion maps.
func Fig5(o Options) ([]Fig5Maps, error) {
	o = mergeDefaults(o)
	p, _ := synth.ProfileByName("MEDIA_SUBSYS")
	var out []Fig5Maps
	for _, placer := range []PlacerName{Commercial, RePlAce, PUFFER} {
		d := synth.Generate(p, o.Scale, o.Seed)
		_, rr, err := runOne(d, placer, o, nil)
		if err != nil {
			return nil, err
		}
		m := rr.Map
		fm := Fig5Maps{
			Design: p.Name, Placer: placer, W: m.W, Ht: m.H,
			Stats: m.Stats(), HOF: rr.HOF, VOF: rr.VOF,
		}
		fm.H = make([]float64, m.W*m.H)
		fm.V = make([]float64, m.W*m.H)
		for i := range fm.H {
			fm.H[i] = m.OverflowH(i)
			fm.V[i] = m.OverflowV(i)
		}
		out = append(out, fm)
		o.log("fig5: %s routed, HOF=%.2f%% VOF=%.2f%%", placer, rr.HOF, rr.VOF)
	}
	return out, nil
}

// FormatFig5 renders the six maps as ASCII heat maps.
func FormatFig5(maps []Fig5Maps) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 5: congestion maps for MEDIA_SUBSYS (overflow heat, darker = worse)\n\n")
	shades := " .:-=+*#%@"
	render := func(grid []float64, w, h int) {
		maxV := 0.0
		for _, v := range grid {
			maxV = math.Max(maxV, v)
		}
		// Downsample tall maps to keep the output readable.
		step := 1
		for h/step > 32 || w/step > 64 {
			step++
		}
		for j := h - 1; j >= 0; j -= step {
			for i := 0; i < w; i += step {
				v := grid[j*w+i]
				k := 0
				if maxV > 0 {
					k = int(v / maxV * float64(len(shades)-1))
				}
				b.WriteByte(shades[k])
			}
			b.WriteByte('\n')
		}
	}
	for _, fm := range maps {
		fmt.Fprintf(&b, "-- %s: HOF=%.2f%% VOF=%.2f%% hot Gcells H/V=%d/%d worst overflow H/V=%.1f/%.1f tracks --\n",
			fm.Placer, fm.HOF, fm.VOF, fm.Stats.HotH, fm.Stats.HotV, fm.Stats.WorstH, fm.Stats.WorstV)
		fmt.Fprintf(&b, "-- %s: horizontal overflow --\n", fm.Placer)
		render(fm.H, fm.W, fm.Ht)
		fmt.Fprintf(&b, "-- %s: vertical overflow --\n", fm.Placer)
		render(fm.V, fm.W, fm.Ht)
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// WritePGM writes a congestion map as a portable graymap image so the maps
// can be viewed with standard tools.
func WritePGM(path string, grid []float64, w, h int) error {
	maxV := 0.0
	for _, v := range grid {
		maxV = math.Max(maxV, v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", w, h)
	for j := h - 1; j >= 0; j-- {
		for i := 0; i < w; i++ {
			v := 0
			if maxV > 0 {
				v = int(grid[j*w+i] / maxV * 255)
			}
			fmt.Fprintf(&b, "%d ", 255-v)
		}
		fmt.Fprintf(&b, "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
