package place

import (
	"math"
	"testing"
)

// TestGammaSchedule verifies the ePlace γ schedule: smooth (large γ) at
// high overflow, sharp (small γ) near convergence, monotone in between.
func TestGammaSchedule(t *testing.T) {
	d := smallDesign(11, 50, false)
	p := New(d, quickConfig())
	prev := math.Inf(1)
	for _, ovf := range []float64{1.0, 0.5, 0.25, 0.1, 0.0} {
		p.overflow = ovf
		p.updateGamma()
		if p.gamma <= 0 {
			t.Fatalf("gamma = %v at overflow %v", p.gamma, ovf)
		}
		if p.gamma >= prev {
			t.Errorf("gamma not decreasing: %v at overflow %v (prev %v)", p.gamma, ovf, prev)
		}
		prev = p.gamma
	}
	// Range: roughly 0.8..80 bin sizes per the 10^(k·ovf+b) schedule.
	p.overflow = 1
	p.updateGamma()
	if p.gamma > 100*p.binBase {
		t.Errorf("gamma at full overflow = %v, bin %v", p.gamma, p.binBase)
	}
	p.overflow = 0
	p.updateGamma()
	if p.gamma < 0.01*p.binBase {
		t.Errorf("gamma at zero overflow = %v, bin %v", p.gamma, p.binBase)
	}
}

// TestInitLambdaBalances checks that the initial λ equalizes wirelength
// and density gradient magnitudes.
func TestInitLambdaBalances(t *testing.T) {
	d := smallDesign(12, 200, false)
	p := New(d, quickConfig())
	p.overflow = 1
	p.updateGamma()
	l1 := p.initLambda()
	if l1 <= 0 || math.IsInf(l1, 0) || math.IsNaN(l1) {
		t.Fatalf("lambda = %v", l1)
	}
	// Recomputing is deterministic.
	if l2 := p.initLambda(); l2 != l1 {
		t.Errorf("initLambda not deterministic: %v vs %v", l1, l2)
	}
}

// TestPlateauStops verifies the engine halts on an overflow plateau
// instead of burning MaxIters.
func TestPlateauStops(t *testing.T) {
	d := smallDesign(13, 150, false)
	cfg := quickConfig()
	cfg.MaxIters = 5000
	cfg.StopOverflow = 0.000001 // unreachable
	cfg.PlateauIters = 60
	p := New(d, cfg)
	res := p.Run(nil)
	if res.Iters >= 5000 {
		t.Errorf("plateau detection never engaged: %d iters", res.Iters)
	}
}

// TestLambdaBacksOffWhenWirelengthDegrades: with an enormous λ the HPWL
// would explode; the adaptive multiplier must pull it back rather than
// compound it.
func TestLambdaAdaptiveBounded(t *testing.T) {
	d := smallDesign(14, 150, false)
	cfg := quickConfig()
	cfg.MaxIters = 150
	p := New(d, cfg)
	res := p.Run(nil)
	last := res.Trace[len(res.Trace)-1]
	if math.IsInf(last.Lambda, 0) || math.IsNaN(last.Lambda) {
		t.Fatalf("lambda diverged: %v", last.Lambda)
	}
	// HPWL growth across the run stays within sane spreading bounds.
	first := res.Trace[0]
	if last.HPWL > 100*first.HPWL+1 {
		t.Errorf("wirelength shredded: %v -> %v", first.HPWL, last.HPWL)
	}
}

// TestFillerRetirement checks the padding/filler area exchange.
func TestFillerRetirement(t *testing.T) {
	d := smallDesign(15, 200, false)
	p := New(d, quickConfig())
	if p.nFill == 0 {
		t.Skip("no fillers")
	}
	before := p.activeFill
	p.retireFillers(5 * p.fillerW * p.fillerH)
	if p.activeFill != before-5 {
		t.Errorf("retired %d fillers, want 5", before-p.activeFill)
	}
	p.retireFillers(1e12)
	if p.activeFill != 0 {
		t.Errorf("activeFill = %d, want 0 after huge retirement", p.activeFill)
	}
	p.retireFillers(-5)
	if p.activeFill != 0 {
		t.Error("negative retirement changed state")
	}
}
