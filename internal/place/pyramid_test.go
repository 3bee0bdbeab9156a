package place

import (
	"errors"
	"math"
	"testing"
)

// TestConfigValidateRejects covers the typed rejection path: bad grid and
// schedule parameters surface as *ConfigError from NewChecked instead of a
// panic from the spectral setup.
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
		{"levels-negative", func(c *Config) { c.PyramidLevels = -1 }, "PyramidLevels"},
		{"refine-no-pyramid", func(c *Config) { c.RefineOverflow = []float64{0.5} }, "RefineOverflow"},
		{"refine-len", func(c *Config) {
			c.PyramidLevels = 3
			c.RefineOverflow = []float64{0.5}
		}, "RefineOverflow"},
		{"refine-descending", func(c *Config) {
			c.PyramidLevels = 3
			c.RefineOverflow = []float64{0.6, 0.4}
		}, "RefineOverflow"},
		{"refine-range", func(c *Config) {
			c.PyramidLevels = 2
			c.RefineOverflow = []float64{1.2}
		}, "RefineOverflow"},
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

	// A valid config — including a pyramid with a custom schedule — passes.
	cfg := DefaultConfig()
	cfg.GridM, cfg.GridN = 64, 32
	cfg.PyramidLevels = 3
	cfg.RefineOverflow = []float64{0.4, 0.6}
	if _, err := NewChecked(d, cfg); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestPyramidRefinesToFinest checks the refinement schedule actually walks
// to level 0 and that the final grid is the full requested resolution.
func TestPyramidRefinesToFinest(t *testing.T) {
	d := smallDesign(3, 300, false)
	cfg := quickConfig()
	cfg.PyramidLevels = 2
	p := New(d, cfg)
	if p.Level() != 1 {
		t.Fatalf("starting level = %d, want coarsest (1)", p.Level())
	}
	res := p.Run(nil)
	if p.Level() != 0 {
		t.Errorf("final level = %d, want 0", p.Level())
	}
	if g := p.Grid(); g.M != 32 || g.N != 32 {
		t.Errorf("final grid %dx%d, want 32x32", g.M, g.N)
	}
	if res.Overflow > 0.12 {
		t.Errorf("final overflow = %v, want <= 0.12", res.Overflow)
	}
}

// TestPyramidMatchesFixedGridBand is the cross-level equivalence test: a
// pyramid run and a fixed-fine-grid run of the same design must land in
// the same HPWL/overflow band (they are different trajectories to the same
// objective, not bit-identical).
func TestPyramidMatchesFixedGridBand(t *testing.T) {
	mk := func(levels int) (hpwl, ovf float64) {
		d := smallDesign(7, 400, true)
		cfg := quickConfig()
		cfg.PyramidLevels = levels
		res := New(d, cfg).Run(nil)
		return res.HPWL, res.Overflow
	}
	fixHPWL, fixOvf := mk(0)
	pyrHPWL, pyrOvf := mk(3)

	if ratio := pyrHPWL / fixHPWL; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("pyramid HPWL %v vs fixed %v: ratio %.3f outside ±15%%", pyrHPWL, fixHPWL, ratio)
	}
	if math.Abs(pyrOvf-fixOvf) > 0.05 {
		t.Errorf("pyramid overflow %v vs fixed %v: outside 0.05 band", pyrOvf, fixOvf)
	}
}

// TestGPDeterminismPyramidAcrossWorkers extends the PR 5 contract to the
// pyramid path: the full multi-level run is bit-identical for any worker
// count.
func TestGPDeterminismPyramidAcrossWorkers(t *testing.T) {
	shardAlways(t)
	run := func(workers int) ([]float64, float64) {
		d := smallDesign(11, 250, false)
		cfg := quickConfig()
		cfg.MaxIters = 60
		cfg.PyramidLevels = 2
		cfg.Workers = workers
		p := New(d, cfg)
		res := p.Run(nil)
		xs := make([]float64, 0, 2*len(d.Cells))
		for i := range d.Cells {
			c := d.Cells[i].Center()
			xs = append(xs, c.X, c.Y)
		}
		return xs, res.HPWL
	}
	refX, refHPWL := run(1)
	for _, w := range []int{2, 4} {
		xs, hpwl := run(w)
		if hpwl != refHPWL {
			t.Fatalf("workers=%d: HPWL %v != serial %v (bit-exact)", w, hpwl, refHPWL)
		}
		for i := range xs {
			if xs[i] != refX[i] {
				t.Fatalf("workers=%d: coord %d = %v != serial %v", w, i, xs[i], refX[i])
			}
		}
	}
}

// TestSolveSkipDuringRun is the integration check for the redundant-solve
// audit: initLambda solves the full deposit, and the first eval at the
// same position re-deposits the identical list — the engine must satisfy
// at least one of those solves from the fingerprint.
func TestSolveSkipDuringRun(t *testing.T) {
	d := smallDesign(5, 200, false)
	cfg := quickConfig()
	cfg.MaxIters = 10
	p := New(d, cfg)
	p.Run(nil)
	if skips := p.Solver().SolveSkips(); skips < 1 {
		t.Errorf("run performed %d fingerprint solve skips, want >= 1", skips)
	}
	if solves := p.Solver().Solves(); solves < 10 {
		t.Errorf("run performed only %d real solves over 10 iters", solves)
	}
}
