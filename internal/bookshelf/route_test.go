package bookshelf

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"puffer/internal/netlist"
)

const sampleRoute = `route 1.0

Grid : 10 8 4
VerticalCapacity : 0 40 0 40
HorizontalCapacity : 30 0 30 0
MinWireWidth : 1 1 1 1
MinWireSpacing : 1 1 1 1
ViaSpacing : 1 1 1 1
GridOrigin : 0 0
TileSize : 20 16
BlockagePorosity : 0.2
NumNiTerminals : 1
  pad0 2
NumBlockageNodes : 2
  blk 2 1 2
  blk2 1 3
`

func TestParseRoute(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.route")
	if err := os.WriteFile(path, []byte(sampleRoute), 0o644); err != nil {
		t.Fatal(err)
	}
	ri, err := ParseRoute(path)
	if err != nil {
		t.Fatal(err)
	}
	if ri.GridX != 10 || ri.GridY != 8 || ri.NumLayers != 4 {
		t.Errorf("grid = %d %d %d", ri.GridX, ri.GridY, ri.NumLayers)
	}
	if len(ri.VertCap) != 4 || ri.VertCap[1] != 40 {
		t.Errorf("VertCap = %v", ri.VertCap)
	}
	if ri.TileW != 20 || ri.TileH != 16 {
		t.Errorf("tile = %v x %v", ri.TileW, ri.TileH)
	}
	if ri.Porosity != 0.2 {
		t.Errorf("porosity = %v", ri.Porosity)
	}
	if got := ri.BlockageNodes["blk"]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("blk layers = %v (0-based)", got)
	}
	if got := ri.BlockageNodes["blk2"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("blk2 layers = %v", got)
	}
	if l, ok := ri.NiTerminals["pad0"]; !ok || l != 1 {
		t.Errorf("NiTerminals = %v", ri.NiTerminals)
	}
}

func TestRouteApply(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.route")
	if err := os.WriteFile(path, []byte(sampleRoute), 0o644); err != nil {
		t.Fatal(err)
	}
	ri, err := ParseRoute(path)
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDesign()
	d.Cells[2].Name = "blk" // the macro becomes the blockage node
	d.AddCell(netlist.Cell{Name: "blk2", W: 2, H: 2, X: 0, Y: 8, Fixed: true})
	if err := ri.Apply(d); err != nil {
		t.Fatal(err)
	}
	if len(d.Layers) != 4 {
		t.Fatalf("layers = %d", len(d.Layers))
	}
	// Layer 1 (index 0): horizontal, capacity 30 length units with pitch 2
	// → 15 tracks over a 16-tall tile → pitch 16/15.
	if d.Layers[0].Dir != netlist.Horizontal {
		t.Error("layer 1 direction wrong")
	}
	wantPitch := 16.0 / 15.0
	if math.Abs(d.Layers[0].Pitch()-wantPitch) > 1e-9 {
		t.Errorf("layer 1 pitch = %v, want %v", d.Layers[0].Pitch(), wantPitch)
	}
	if d.Layers[1].Dir != netlist.Vertical {
		t.Error("layer 2 direction wrong")
	}
	// 3 blockages total: blk on layers 0,1 and blk2 on layer 2.
	if len(d.Blockages) != 3 {
		t.Fatalf("blockages = %d, want 3", len(d.Blockages))
	}
	// Porosity 0.2 shrinks outlines to 80% area.
	macroArea := d.Cells[2].Area()
	if got := d.Blockages[0].Rect.Area(); math.Abs(got-0.8*macroArea) > 1e-9 {
		t.Errorf("blockage area = %v, want %v", got, 0.8*macroArea)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// hostileRoutes are .route files whose counts are not backed by data:
// each used to crash the parser or Apply.
var hostileRoutes = []string{
	// 2+n overflowed, and the layer loop indexed past the line
	"NumBlockageNodes : 1\nnode 9223372036854775807\n",
	// the metal stack was allocated at the stated size
	"Grid : 4 4 100000000000\nTileSize : 1 1\n",
}

func TestRouteRejectsUnbackedCounts(t *testing.T) {
	for _, src := range append([]string{
		"NumBlockageNodes : 1\nnode -1\n",
		"NumBlockageNodes : 1\nnode 2 1\n",
		"NumBlockageNodes : -3\n",
		"NumNiTerminals : 1e300\n",
		"Grid : 4 4 NaN\n",
		"Grid : 4 4 2.5\n",
		"Grid : 4 4 3\nVerticalCapacity : 0 40\nHorizontalCapacity : 30 0 30\nTileSize : 1 1\n",
	}, hostileRoutes...) {
		path := filepath.Join(t.TempDir(), "t.route")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		ri, err := ParseRoute(path)
		if err == nil {
			err = ri.Apply(sampleDesign())
		}
		if err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestRouteApplyUnknownNode(t *testing.T) {
	ri := &RouteInfo{
		NumLayers: 2, TileW: 10, TileH: 10,
		HorizCap: []float64{10, 0}, VertCap: []float64{0, 10},
		BlockageNodes: map[string][]int{"ghost": {0}},
	}
	d := sampleDesign()
	if err := ri.Apply(d); err == nil {
		t.Error("unknown blockage node accepted")
	}
}

func TestRouteRoundTripThroughAux(t *testing.T) {
	dir := t.TempDir()
	d := sampleDesign()
	auxPath, err := Write(d, dir, "rt")
	if err != nil {
		t.Fatal(err)
	}
	// Attach a .route file and reference it from the aux.
	if err := WriteRoute(d, filepath.Join(dir, "rt.route"), 10, 5); err != nil {
		t.Fatal(err)
	}
	aux := "RowBasedPlacement : rt.nodes rt.nets rt.wts rt.pl rt.scl rt.route\n"
	if err := os.WriteFile(auxPath, []byte(aux), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(auxPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(d.Layers) {
		t.Fatalf("layers = %d, want %d", len(got.Layers), len(d.Layers))
	}
	for i := range got.Layers {
		if got.Layers[i].Dir != d.Layers[i].Dir {
			t.Errorf("layer %d direction mismatch", i)
		}
	}
}

func TestWriteRouteRejectsBadGrid(t *testing.T) {
	d := sampleDesign()
	if err := WriteRoute(d, filepath.Join(t.TempDir(), "x.route"), 0, 5); err == nil {
		t.Error("bad grid accepted")
	}
}
