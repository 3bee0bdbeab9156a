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
	"puffer/pipeline"
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

// TestApplyAssignmentRoundTrip sets every declared parameter to a value
// off its default and checks each lands in the field it names, and that
// an absent parameter leaves its field alone.
func TestApplyAssignmentRoundTrip(t *testing.T) {
	def := padding.DefaultStrategy()
	fields := map[string]func(*padding.Strategy) float64{
		"w_local_cg":      func(s *padding.Strategy) float64 { return s.Weights[feature.LocalCg] },
		"w_local_pin":     func(s *padding.Strategy) float64 { return s.Weights[feature.LocalPinDensity] },
		"w_surround_cg":   func(s *padding.Strategy) float64 { return s.Weights[feature.SurroundCg] },
		"w_surround_pin":  func(s *padding.Strategy) float64 { return s.Weights[feature.SurroundPinDensity] },
		"w_pin_cg":        func(s *padding.Strategy) float64 { return s.Weights[feature.PinCg] },
		"beta":            func(s *padding.Strategy) float64 { return s.Beta },
		"mu":              func(s *padding.Strategy) float64 { return s.Mu },
		"smoothing":       func(s *padding.Strategy) float64 { return float64(s.Smooth) },
		"zeta":            func(s *padding.Strategy) float64 { return s.Zeta },
		"pu_low":          func(s *padding.Strategy) float64 { return s.PuLow },
		"pu_high":         func(s *padding.Strategy) float64 { return s.PuHigh },
		"tau":             func(s *padding.Strategy) float64 { return s.Tau },
		"xi":              func(s *padding.Strategy) float64 { return float64(s.MaxIters) },
		"cooldown":        func(s *padding.Strategy) float64 { return float64(s.CooldownIters) },
		"pin_penalty":     func(s *padding.Strategy) float64 { return s.Cong.PinPenalty },
		"expand_radius":   func(s *padding.Strategy) float64 { return float64(s.Cong.ExpandRadius) },
		"transfer_ratio":  func(s *padding.Strategy) float64 { return s.Cong.TransferRatio },
		"kernel_margin":   func(s *padding.Strategy) float64 { return float64(s.Feat.KernelMargin) },
		"theta":           func(s *padding.Strategy) float64 { return s.Theta },
		"net_weight_gain": func(s *padding.Strategy) float64 { return s.NetWeightGain },
	}
	params := StrategyParams()
	if len(params) != len(fields) {
		t.Fatalf("%d parameters declared, the test checks %d", len(params), len(fields))
	}
	for _, p := range params {
		get, ok := fields[p.Name]
		if !ok {
			t.Errorf("parameter %q has no field check", p.Name)
			continue
		}
		// A value inside the declared range that differs from the
		// default: the top of the range, or its bottom when the default
		// sits at the top.
		v := p.Hi
		if p.Kind == explore.Categorical {
			v = float64(len(p.Choices) - 1)
		}
		if get(&def) == v {
			v = p.Lo
		}
		s := padding.DefaultStrategy()
		ApplyAssignment(&s, explore.Assignment{p.Name: v})
		if got := get(&s); got != v {
			t.Errorf("%s = %v: field reads %v", p.Name, v, got)
		}
		// Every other field keeps its default.
		for name, other := range fields {
			if name != p.Name && other(&s) != other(&def) {
				t.Errorf("setting %s moved %s: %v, default %v", p.Name, name, other(&s), other(&def))
			}
		}
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
	tuned, score, n, err := ExploreStrategyOpts(context.Background(), d, cfg, ExploreOptions{Budget: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no observations")
	}
	if tuned.MaxIters < 3 || tuned.MaxIters > 14 {
		t.Errorf("tuned xi out of declared range: %d", tuned.MaxIters)
	}
	if tuned.Mu <= 0 {
		t.Errorf("tuned mu invalid: %v", tuned.Mu)
	}
	// The score is the tuned strategy's, judged as a trial is.
	jcfg := DefaultConfig()
	jcfg.Place, jcfg.Strategy = cfg, tuned
	rec, _, err := pipeline.Judge(context.Background(), pipeline.PUFFER, d.Clone(), jcfg, pipeline.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Final.HOF + rec.Final.VOF; got != score {
		t.Errorf("tuned strategy judges to %v, ExploreStrategyOpts scored it %v", got, score)
	}
}

// TestExploreStrategyRejectsEmptyBudget: a budget below one trial is an
// error, not a silent default schedule, and runs no trial.
func TestExploreStrategyRejectsEmptyBudget(t *testing.T) {
	p, _ := synth.ProfileByName("OR1200")
	d := synth.Generate(p, 12000, 2)
	for _, budget := range []int{0, -3} {
		_, _, n, err := ExploreStrategyOpts(context.Background(), d, place.DefaultConfig(), ExploreOptions{Budget: budget, Seed: 7})
		if err == nil || n != 0 {
			t.Errorf("budget %d: %d trials, err %v; want an error and no trial", budget, n, err)
		}
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
