package puffer

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"puffer/internal/explore"
	"puffer/internal/feature"
	"puffer/internal/padding"
	"puffer/internal/place"
	"puffer/internal/synth"
)

func TestStrategyParamsGrouped(t *testing.T) {
	params := StrategyParams()
	if len(params) < 12 {
		t.Fatalf("only %d strategy params declared", len(params))
	}
	groups := map[string]int{}
	names := map[string]bool{}
	for _, p := range params {
		if names[p.Name] {
			t.Errorf("duplicate param %q", p.Name)
		}
		names[p.Name] = true
		if p.Group == "" {
			t.Errorf("param %q has no relevance group", p.Name)
		}
		groups[p.Group]++
		if p.Kind != explore.Categorical && p.Lo >= p.Hi {
			t.Errorf("param %q has empty range", p.Name)
		}
	}
	if len(groups) < 4 {
		t.Errorf("only %d relevance groups", len(groups))
	}
}

func TestApplyAssignmentRoundTrip(t *testing.T) {
	s := padding.DefaultStrategy()
	a := explore.Assignment{
		"w_local_cg": 2.5, "beta": -0.5, "mu": 0.7,
		"zeta": 9, "pu_low": 0.03, "pu_high": 0.2,
		"tau": 0.22, "xi": 11,
		"pin_penalty": 0.2, "expand_radius": 5, "transfer_ratio": 0.33,
		"kernel_margin": 4, "theta": 6,
	}
	ApplyAssignment(&s, a)
	if s.Weights[feature.LocalCg] != 2.5 || s.Beta != -0.5 || s.Mu != 0.7 {
		t.Error("formula params not applied")
	}
	if s.Zeta != 9 || s.PuLow != 0.03 || s.PuHigh != 0.2 {
		t.Error("control params not applied")
	}
	if s.Tau != 0.22 || s.MaxIters != 11 {
		t.Error("trigger params not applied")
	}
	if s.Cong.PinPenalty != 0.2 || s.Cong.ExpandRadius != 5 || s.Cong.TransferRatio != 0.33 {
		t.Error("estimator params not applied")
	}
	if s.Feat.KernelMargin != 4 || s.Theta != 6 {
		t.Error("kernel/theta not applied")
	}
	// Untouched parameters stay at defaults.
	def := padding.DefaultStrategy()
	if s.Weights[feature.SurroundCg] != def.Weights[feature.SurroundCg] {
		t.Error("absent param was modified")
	}
}

func TestStrategyObjectiveClonesDesign(t *testing.T) {
	p, _ := synth.ProfileByName("OR1200")
	d := synth.Generate(p, 12000, 1)
	origX := d.Cells[len(d.Cells)-1].X
	cfg := place.DefaultConfig()
	cfg.MaxIters = 60
	obj := StrategyObjective(d, cfg)
	y := obj(explore.Assignment{"mu": 0.5})
	if y < 0 {
		t.Errorf("objective = %v, want >= 0", y)
	}
	if d.Cells[len(d.Cells)-1].X != origX {
		t.Error("objective mutated the original design")
	}
}

func TestExploreStrategySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration in -short mode")
	}
	p, _ := synth.ProfileByName("OR1200")
	d := synth.Generate(p, 12000, 2)
	cfg := place.DefaultConfig()
	cfg.MaxIters = 50
	final, best, n, err := ExploreStrategyOpts(context.Background(), d, cfg, ExploreOptions{Budget: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no observations")
	}
	if final.MaxIters < 3 || final.MaxIters > 14 {
		t.Errorf("final xi out of declared range: %d", final.MaxIters)
	}
	if best.Mu <= 0 {
		t.Errorf("best mu invalid: %v", best.Mu)
	}
}

// FuzzLoadStrategy feeds LoadStrategy arbitrary files: it must never
// panic, and whatever it accepts must survive SaveStrategy → LoadStrategy
// unchanged.
func FuzzLoadStrategy(f *testing.F) {
	def, err := json.Marshal(padding.DefaultStrategy())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(def),
		`{"Mu": 3.5, "Smooth": 2, "Weights": [1, 2]}`,
		`{"CooldownIters": -4, "Cong": {"ExpandRadius": 1e9}, "Feat": null}`,
		`{"Weights": [1, 2, 3, 4, 5, 6, 7], "Tau": -0}`,
		`{"Theta": 1e308, "Beta": 5e-324}`,
		`{"MaxIters": 1.5}`,
		`{nope`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadStrategy(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := SaveStrategy(out, s); err != nil {
			t.Fatalf("a loaded strategy does not save: %v", err)
		}
		got, err := LoadStrategy(out)
		if err != nil {
			t.Fatalf("a saved strategy does not load: %v", err)
		}
		if got != s {
			t.Fatalf("round trip changed the strategy:\n got %+v\nwant %+v", got, s)
		}
	})
}
