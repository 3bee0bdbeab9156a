package bookshelf

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"puffer/internal/geom"
	"puffer/internal/netlist"
)

// RouteInfo carries the routing-resource description of an ISPD-2011-style
// .route file: the global routing grid, per-layer capacities, wire rules,
// and blockage annotations. The Bookshelf suite used by routability-driven
// placement contests ships these alongside the placement files.
type RouteInfo struct {
	GridX, GridY int
	NumLayers    int
	VertCap      []float64 // per layer, in tracks per tile
	HorizCap     []float64
	WireWidth    []float64
	WireSpacing  []float64
	ViaSpacing   []float64
	OriginX      float64
	OriginY      float64
	TileW, TileH float64
	Porosity     float64 // blockage porosity in [0, 1]

	// BlockageNodes maps node names to the layers they block.
	BlockageNodes map[string][]int
	// NiTerminals lists non-image terminals with their layer.
	NiTerminals map[string]int
}

// ParseRoute reads a .route file.
func ParseRoute(path string) (*RouteInfo, error) {
	ri := &RouteInfo{
		BlockageNodes: map[string][]int{},
		NiTerminals:   map[string]int{},
	}
	mode := ""
	pending := 0
	err := lineScanner(path, func(f []string) error {
		if len(f) == 0 {
			return nil
		}
		if pending > 0 {
			switch mode {
			case "blockage":
				if len(f) < 2 {
					return fmt.Errorf("bad blockage node line %q", strings.Join(f, " "))
				}
				n, err := strconv.Atoi(f[1])
				if err != nil {
					return err
				}
				if n < 0 || n > len(f)-2 {
					return fmt.Errorf("blockage node %s lists %d layers, has %d", f[0], n, len(f)-2)
				}
				var layers []int
				for k := 0; k < n; k++ {
					l, err := strconv.Atoi(f[2+k])
					if err != nil {
						return err
					}
					layers = append(layers, l-1) // .route layers are 1-based
				}
				ri.BlockageNodes[f[0]] = layers
			case "ni":
				if len(f) >= 2 {
					if l, err := strconv.Atoi(f[1]); err == nil {
						ri.NiTerminals[f[0]] = l - 1
					}
				}
			}
			pending--
			return nil
		}
		key := strings.TrimSuffix(f[0], ":")
		vals := f[1:]
		if len(vals) > 0 && vals[0] == ":" {
			vals = vals[1:]
		}
		nums := func() ([]float64, error) {
			out := make([]float64, 0, len(vals))
			for _, v := range vals {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, err
				}
				out = append(out, x)
			}
			return out, nil
		}
		switch key {
		case "route":
			return nil // header
		case "Grid":
			ns, err := nums()
			if err != nil || len(ns) < 3 {
				return fmt.Errorf("bad Grid line")
			}
			for _, v := range ns[:3] {
				if !isCount(v) {
					return fmt.Errorf("bad Grid line: %v is not a count", v)
				}
			}
			ri.GridX, ri.GridY, ri.NumLayers = int(ns[0]), int(ns[1]), int(ns[2])
		case "VerticalCapacity":
			var err error
			ri.VertCap, err = nums()
			return err
		case "HorizontalCapacity":
			var err error
			ri.HorizCap, err = nums()
			return err
		case "MinWireWidth":
			var err error
			ri.WireWidth, err = nums()
			return err
		case "MinWireSpacing":
			var err error
			ri.WireSpacing, err = nums()
			return err
		case "ViaSpacing":
			var err error
			ri.ViaSpacing, err = nums()
			return err
		case "GridOrigin":
			ns, err := nums()
			if err != nil || len(ns) < 2 {
				return fmt.Errorf("bad GridOrigin")
			}
			ri.OriginX, ri.OriginY = ns[0], ns[1]
		case "TileSize":
			ns, err := nums()
			if err != nil || len(ns) < 2 {
				return fmt.Errorf("bad TileSize")
			}
			ri.TileW, ri.TileH = ns[0], ns[1]
		case "BlockagePorosity":
			ns, err := nums()
			if err != nil || len(ns) < 1 {
				return fmt.Errorf("bad BlockagePorosity")
			}
			ri.Porosity = ns[0]
		case "NumNiTerminals":
			ns, err := nums()
			if err != nil || len(ns) < 1 || !isCount(ns[0]) {
				return fmt.Errorf("bad NumNiTerminals")
			}
			pending = int(ns[0])
			mode = "ni"
		case "NumBlockageNodes":
			ns, err := nums()
			if err != nil || len(ns) < 1 || !isCount(ns[0]) {
				return fmt.Errorf("bad NumBlockageNodes")
			}
			pending = int(ns[0])
			mode = "blockage"
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ri, nil
}

// isCount reports whether v is a whole number in [0, MaxInt32]: a count a
// .route file can state. The counts are bounded by the data that backs
// them afterwards; this only keeps the conversion to int exact.
func isCount(v float64) bool {
	return v >= 0 && v <= math.MaxInt32 && v == math.Trunc(v)
}

// Apply installs the routing-resource description into the design: the
// metal stack is rebuilt from the per-layer capacities and wire rules, and
// blockage-node annotations become layer blockages over the named cells'
// outlines (scaled by 1 - porosity).
func (ri *RouteInfo) Apply(d *netlist.Design) error {
	if ri.NumLayers <= 0 || ri.TileW <= 0 || ri.TileH <= 0 {
		return fmt.Errorf("route: incomplete grid description")
	}
	// The layer count sizes the metal stack: it is bounded by the
	// capacity lists that describe the layers.
	if ri.NumLayers > len(ri.VertCap) || ri.NumLayers > len(ri.HorizCap) {
		return fmt.Errorf("route: %d layers, capacities given for %d vertical and %d horizontal",
			ri.NumLayers, len(ri.VertCap), len(ri.HorizCap))
	}
	layers := make([]netlist.Layer, 0, ri.NumLayers)
	for l := 0; l < ri.NumLayers; l++ {
		hc := at(ri.HorizCap, l)
		vc := at(ri.VertCap, l)
		// The .route capacities are routing-length units per tile edge;
		// tracks = capacity / wire pitch. Our Layer model derives track
		// counts from tile extent / pitch, so pick pitch = extent / tracks.
		var layer netlist.Layer
		ww := at(ri.WireWidth, l)
		ws := at(ri.WireSpacing, l)
		if ww <= 0 {
			ww = 1
		}
		if ws <= 0 {
			ws = 1
		}
		if hc >= vc { // horizontal layer
			tracks := math.Max(hc/(ww+ws), 0)
			pitch := ri.TileH
			if tracks > 0 {
				pitch = ri.TileH / tracks
			} else {
				pitch = math.Inf(1)
			}
			layer = netlist.Layer{
				Name: fmt.Sprintf("M%d", l+1), Dir: netlist.Horizontal,
				Width: pitch / 2, Spacing: pitch / 2,
			}
			if math.IsInf(pitch, 1) {
				// Zero-capacity layer: give it an enormous pitch so it
				// contributes ~nothing.
				layer.Width = 1e9
				layer.Spacing = 1e9
			}
		} else {
			tracks := math.Max(vc/(ww+ws), 0)
			pitch := ri.TileW
			if tracks > 0 {
				pitch = ri.TileW / tracks
			} else {
				pitch = math.Inf(1)
			}
			layer = netlist.Layer{
				Name: fmt.Sprintf("M%d", l+1), Dir: netlist.Vertical,
				Width: pitch / 2, Spacing: pitch / 2,
			}
			if math.IsInf(pitch, 1) {
				layer.Width = 1e9
				layer.Spacing = 1e9
			}
		}
		layers = append(layers, layer)
	}
	d.Layers = layers

	// Blockage annotations: block the listed layers over each node's
	// outline, scaled by (1 - porosity) via a shrunken rect.
	if len(ri.BlockageNodes) > 0 {
		byName := map[string]int{}
		for i := range d.Cells {
			if d.Cells[i].Name != "" {
				byName[d.Cells[i].Name] = i
			}
		}
		shrink := math.Sqrt(math.Max(0, 1-ri.Porosity))
		// Sorted node order: d.Blockages must not depend on map iteration,
		// both for reproducible flows (checkpoint resume equality) and for
		// tests that index into the blockage list.
		names := make([]string, 0, len(ri.BlockageNodes))
		for name := range ri.BlockageNodes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			blockedLayers := ri.BlockageNodes[name]
			ci, ok := byName[name]
			if !ok {
				return fmt.Errorf("route: blockage node %q not in design", name)
			}
			r := d.Cells[ci].Rect()
			c := r.Center()
			br := geom.RectWH(
				c.X-r.W()*shrink/2, c.Y-r.H()*shrink/2,
				r.W()*shrink, r.H()*shrink)
			for _, l := range blockedLayers {
				if l < 0 || l >= len(d.Layers) {
					return fmt.Errorf("route: blockage node %q references layer %d", name, l+1)
				}
				d.Blockages = append(d.Blockages, netlist.Blockage{Rect: br, Layer: l})
			}
		}
	}
	return nil
}

func at(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// WriteRoute emits a .route file describing the design's routing
// resources on a gridX×gridY tile grid.
func WriteRoute(d *netlist.Design, path string, gridX, gridY int) error {
	if gridX <= 0 || gridY <= 0 {
		return fmt.Errorf("route: invalid grid %dx%d", gridX, gridY)
	}
	tileW := d.Region.W() / float64(gridX)
	tileH := d.Region.H() / float64(gridY)
	var b strings.Builder
	fmt.Fprintf(&b, "route 1.0\n\n")
	fmt.Fprintf(&b, "Grid : %d %d %d\n", gridX, gridY, len(d.Layers))
	write := func(label string, f func(netlist.Layer) float64) {
		fmt.Fprintf(&b, "%s :", label)
		for _, l := range d.Layers {
			fmt.Fprintf(&b, " %g", f(l))
		}
		fmt.Fprintf(&b, "\n")
	}
	// .route capacities are tracks × pitch in length units; with every
	// cross-section track usable that is exactly the tile extent.
	write("VerticalCapacity", func(l netlist.Layer) float64 {
		if l.Dir != netlist.Vertical {
			return 0
		}
		return math.Floor(tileW/l.Pitch()) * l.Pitch()
	})
	write("HorizontalCapacity", func(l netlist.Layer) float64 {
		if l.Dir != netlist.Horizontal {
			return 0
		}
		return math.Floor(tileH/l.Pitch()) * l.Pitch()
	})
	write("MinWireWidth", func(l netlist.Layer) float64 { return l.Width })
	write("MinWireSpacing", func(l netlist.Layer) float64 { return l.Spacing })
	write("ViaSpacing", func(l netlist.Layer) float64 { return l.Spacing })
	fmt.Fprintf(&b, "GridOrigin : %g %g\n", d.Region.Lo.X, d.Region.Lo.Y)
	fmt.Fprintf(&b, "TileSize : %g %g\n", tileW, tileH)
	fmt.Fprintf(&b, "BlockagePorosity : 0\n")
	fmt.Fprintf(&b, "NumNiTerminals : 0\n")
	// Emit macro cells as blockage nodes over the lower routing layers.
	var macroNames []string
	for i := range d.Cells {
		if d.Cells[i].Macro {
			macroNames = append(macroNames, cellName(d, i))
		}
	}
	fmt.Fprintf(&b, "NumBlockageNodes : %d\n", len(macroNames))
	nBlock := min(3, len(d.Layers))
	for _, name := range macroNames {
		fmt.Fprintf(&b, "   %s %d", name, nBlock)
		for l := 1; l <= nBlock; l++ {
			fmt.Fprintf(&b, " %d", l)
		}
		fmt.Fprintf(&b, "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
