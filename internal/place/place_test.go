package place

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// smallDesign builds nc unit cells in a 64x64 region with chained 2-3 pin
// nets and an optional central macro.
func smallDesign(seed int64, nc int, withMacro bool) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{
		Name:      "small",
		Region:    geom.RectWH(0, 0, 64, 64),
		RowHeight: 1,
		SiteWidth: 0.25,
		Layers:    netlist.DefaultLayers(),
	}
	if withMacro {
		d.AddCell(netlist.Cell{Name: "macro", W: 16, H: 16, X: 24, Y: 24, Fixed: true, Macro: true})
	}
	for i := 0; i < nc; i++ {
		d.AddCell(netlist.Cell{W: 1, H: 1, X: 32, Y: 32})
	}
	base := 0
	if withMacro {
		base = 1
	}
	for i := 0; i+2 < nc; i += 2 {
		n := d.AddNet("", 1)
		d.Connect(base+i, n, 0.5, 0.5)
		d.Connect(base+i+1, n, 0.5, 0.5)
		if rng.Intn(2) == 0 {
			d.Connect(base+i+2, n, 0.5, 0.5)
		}
	}
	return d
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxIters = 300
	cfg.GridM, cfg.GridN = 32, 32
	return cfg
}

func TestPlacementSpreadsCells(t *testing.T) {
	d := smallDesign(1, 300, false)
	p := New(d, quickConfig())
	res := p.Run(nil)
	if res.Overflow > 0.12 {
		t.Errorf("final overflow = %v, want <= 0.12", res.Overflow)
	}
	if res.Iters == 0 || len(res.Trace) != res.Iters {
		t.Errorf("trace length %d != iters %d", len(res.Trace), res.Iters)
	}
	// Cells spread: bounding box of placements covers a good part of the
	// region rather than the initial center cluster.
	var lo, hi geom.Point
	lo = geom.Pt(math.Inf(1), math.Inf(1))
	hi = geom.Pt(math.Inf(-1), math.Inf(-1))
	for i := range d.Cells {
		c := d.Cells[i].Center()
		lo.X = math.Min(lo.X, c.X)
		lo.Y = math.Min(lo.Y, c.Y)
		hi.X = math.Max(hi.X, c.X)
		hi.Y = math.Max(hi.Y, c.Y)
	}
	if (hi.X-lo.X) < 16 || (hi.Y-lo.Y) < 16 {
		t.Errorf("cells did not spread: bbox %vx%v", hi.X-lo.X, hi.Y-lo.Y)
	}
}

func TestCellsStayInsideRegion(t *testing.T) {
	d := smallDesign(2, 200, false)
	p := New(d, quickConfig())
	p.Run(nil)
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.X < -1e-9 || c.Y < -1e-9 || c.X+c.W > 64+1e-9 || c.Y+c.H > 64+1e-9 {
			t.Fatalf("cell %d escaped region: (%v,%v)", i, c.X, c.Y)
		}
	}
}

func TestMacroRepelsCells(t *testing.T) {
	d := smallDesign(3, 300, true)
	p := New(d, quickConfig())
	p.Run(nil)
	macro := geom.RectWH(24, 24, 16, 16)
	overlap := 0.0
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			continue
		}
		overlap += d.Cells[i].Rect().OverlapArea(macro)
	}
	total := d.TotalMovableArea()
	if overlap > 0.10*total {
		t.Errorf("%.1f%% of movable area sits on the macro", 100*overlap/total)
	}
}

func TestConnectedCellsEndUpCloser(t *testing.T) {
	d := smallDesign(4, 300, false)
	p := New(d, quickConfig())
	p.Run(nil)

	// Average distance between connected pairs vs random pairs.
	rng := rand.New(rand.NewSource(9))
	connected, random := 0.0, 0.0
	pairs := 0
	for n := range d.Nets {
		pins := d.Nets[n].Pins
		if len(pins) < 2 {
			continue
		}
		a := d.Cells[d.Pins[pins[0]].Cell].Center()
		b := d.Cells[d.Pins[pins[1]].Cell].Center()
		connected += a.ManhattanDist(b)
		ra := d.Cells[d.MovableIDs()[rng.Intn(300)]].Center()
		rb := d.Cells[d.MovableIDs()[rng.Intn(300)]].Center()
		random += ra.ManhattanDist(rb)
		pairs++
	}
	if pairs == 0 {
		t.Fatal("no pairs")
	}
	if connected >= random {
		t.Errorf("connected pairs avg dist %v >= random pairs %v", connected/float64(pairs), random/float64(pairs))
	}
}

func TestOverflowDecreasesOverall(t *testing.T) {
	d := smallDesign(5, 250, false)
	p := New(d, quickConfig())
	res := p.Run(nil)
	first := res.Trace[0].Overflow
	last := res.Trace[len(res.Trace)-1].Overflow
	if last >= first {
		t.Errorf("overflow did not decrease: %v -> %v", first, last)
	}
}

func TestHookInvokedAndPaddingRetiresFillers(t *testing.T) {
	d := smallDesign(6, 200, false)
	p := New(d, quickConfig())
	if p.nFill == 0 {
		t.Fatal("expected fillers in a sparse design")
	}
	before := p.activeFill
	calls := 0
	hook := HookFunc(func(iter int, overflow float64) bool {
		calls++
		if iter == 50 {
			for i := range d.Cells {
				if !d.Cells[i].Fixed {
					d.Cells[i].PadW = 0.5
				}
			}
			return true
		}
		return false
	})
	p.Run(hook)
	if calls == 0 {
		t.Fatal("hook never invoked")
	}
	if p.activeFill >= before {
		t.Errorf("fillers not retired after padding: %d -> %d", before, p.activeFill)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []float64 {
		d := smallDesign(7, 150, false)
		cfg := quickConfig()
		cfg.MaxIters = 80
		cfg.Seed = 42
		New(d, cfg).Run(nil)
		out := make([]float64, 0, 2*len(d.Cells))
		for i := range d.Cells {
			out = append(out, d.Cells[i].X, d.Cells[i].Y)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEmptyDesign(t *testing.T) {
	d := &netlist.Design{Region: geom.RectWH(0, 0, 10, 10), RowHeight: 1, SiteWidth: 0.2}
	p := New(d, DefaultConfig())
	res := p.Run(nil)
	if res.Iters != 0 {
		t.Errorf("empty design ran %d iters", res.Iters)
	}
}

func TestBadTargetDensityPanics(t *testing.T) {
	d := smallDesign(8, 10, false)
	cfg := DefaultConfig()
	cfg.TargetDensity = 0
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero target density")
		}
	}()
	New(d, cfg)
}

// TestConfigValidateRejects covers the typed rejection path: bad grid
// parameters surface as *ConfigError from NewChecked instead of a panic
// from the spectral setup.
func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		mod   func(*Config)
		field string
	}{
		{"density", func(c *Config) { c.TargetDensity = 1.5 }, "TargetDensity"},
		{"gridM-not-pow2", func(c *Config) { c.GridM = 48 }, "GridM"},
		{"gridM-too-small", func(c *Config) { c.GridM = 8 }, "GridM"},
		{"gridN", func(c *Config) { c.GridM = 32; c.GridN = 7 }, "GridN"},
	}
	d := smallDesign(1, 50, false)
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mod(&cfg)
		_, err := NewChecked(d, cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: NewChecked err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}

	// New must panic with the same typed error.
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*ConfigError); !ok {
				t.Errorf("New panic = %v, want *ConfigError", r)
			}
		}()
		cfg := DefaultConfig()
		cfg.GridM = 10
		New(smallDesign(1, 10, false), cfg)
	}()

	// A valid config with an explicit non-square grid passes.
	cfg := DefaultConfig()
	cfg.GridM, cfg.GridN = 64, 32
	if _, err := NewChecked(d, cfg); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestNewEvaluatesNothing: building the engine runs no wirelength
// evaluation. γ is set only when a run starts, and WA at γ = 0 turns every
// pin at its net's extreme into 0·∞ = NaN; the gradient NewChecked leaves
// must be clean.
func TestNewEvaluatesNothing(t *testing.T) {
	prof, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewChecked(synth.Generate(prof, 800, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.evals != 0 {
		t.Errorf("NewChecked ran %d evaluations, want 0", p.evals)
	}
	for i := range p.gradWx {
		if math.IsNaN(p.gradWx[i]) || math.IsNaN(p.gradWy[i]) {
			t.Fatalf("cell %d: WA gradient (%v, %v) after NewChecked", i, p.gradWx[i], p.gradWy[i])
		}
	}
}
