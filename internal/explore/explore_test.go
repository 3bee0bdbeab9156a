package explore

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"puffer/internal/obs"
)

func sphereParams() []Param {
	return []Param{
		{Name: "a", Kind: Uniform, Lo: -10, Hi: 10, Group: "g1"},
		{Name: "b", Kind: Uniform, Lo: -10, Hi: 10, Group: "g1"},
		{Name: "c", Kind: Uniform, Lo: -10, Hi: 10, Group: "g2"},
	}
}

// sphere has its optimum at (3, -2, 5).
func sphere(x Assignment) float64 {
	return math.Pow(x["a"]-3, 2) + math.Pow(x["b"]+2, 2) + math.Pow(x["c"]-5, 2)
}

func TestExplorerImprovesSphere(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Explorer{
		Params:    sphereParams(),
		Eval:      sphere,
		TimeLimit: 40,
		EarlyStop: 40,
		Rounds:    2,
		Workers:   1,
		Seed:      1,
		Obs:       obs.NewRecorder(nil, reg),
	}
	final, best := e.Run()
	if sphere(best) > 3 {
		t.Errorf("best observed objective %v, want < 3", sphere(best))
	}
	if sphere(final) > 15 {
		t.Errorf("final (range-median) objective %v, want < 15", sphere(final))
	}
	hist := e.History()
	if len(hist) == 0 {
		t.Fatal("no history recorded")
	}
	// One score sample per trial, in trial order, and the running best.
	scores := reg.Series("explore.trial.score").Samples()
	if len(scores) != len(hist) {
		t.Fatalf("explore.trial.score has %d samples, want %d", len(scores), len(hist))
	}
	low := math.Inf(1)
	for k, o := range hist {
		if scores[k].Step != k+1 || scores[k].Value != o.Y {
			t.Fatalf("score sample %d = %+v, want step %d value %v", k, scores[k], k+1, o.Y)
		}
		low = math.Min(low, o.Y)
	}
	if got := reg.Gauge("explore.best_score").Value(); got != low {
		t.Fatalf("explore.best_score = %v, want %v", got, low)
	}
}

func TestTPEBeatsRandomSearch(t *testing.T) {
	budget := 60
	params := sphereParams()

	tpeBest := 0.0
	{
		e := &Explorer{Params: params, Eval: sphere, TimeLimit: budget, EarlyStop: budget, Rounds: 1, Workers: 1, Seed: 7}
		_, best := e.Run()
		tpeBest = sphere(best)
	}

	// Random search with the same total evaluation count, averaged over a
	// few seeds to be fair.
	worse := 0
	const trials = 5
	for s := int64(0); s < trials; s++ {
		rng := rand.New(rand.NewSource(s))
		best := math.Inf(1)
		// The explorer used at least `budget` evals (global + groups);
		// give random search 3x that.
		for k := 0; k < 3*budget; k++ {
			x := Assignment{
				"a": -10 + 20*rng.Float64(),
				"b": -10 + 20*rng.Float64(),
				"c": -10 + 20*rng.Float64(),
			}
			if y := sphere(x); y < best {
				best = y
			}
		}
		if tpeBest <= best {
			worse++
		}
	}
	if worse < trials/2 {
		t.Errorf("TPE (%v) beat random search only %d/%d times", tpeBest, worse, trials)
	}
}

func TestIntAndLogParams(t *testing.T) {
	params := []Param{
		{Name: "n", Kind: IntUniform, Lo: 1, Hi: 20},
		{Name: "s", Kind: LogUniform, Lo: 0.001, Hi: 100},
	}
	obj := func(x Assignment) float64 {
		return math.Abs(x["n"]-7) + math.Abs(math.Log10(x["s"])-0) // optimum n=7, s=1
	}
	e := &Explorer{Params: params, Eval: obj, TimeLimit: 50, EarlyStop: 50, Rounds: 2, Workers: 1, Seed: 3}
	_, best := e.Run()
	if best["n"] != math.Round(best["n"]) {
		t.Errorf("int param not integral: %v", best["n"])
	}
	if best["s"] < 0.001 || best["s"] > 100 {
		t.Errorf("log param out of range: %v", best["s"])
	}
	if obj(best) > 4 {
		t.Errorf("best objective %v, want < 4", obj(best))
	}
}

func TestCategoricalSelection(t *testing.T) {
	params := []Param{
		{Name: "mode", Kind: Categorical, Choices: []string{"bad", "worse", "good", "awful"}},
		{Name: "x", Kind: Uniform, Lo: 0, Hi: 1},
	}
	obj := func(a Assignment) float64 {
		base := []float64{5, 8, 0, 12}[int(a["mode"])]
		return base + a["x"]
	}
	e := &Explorer{Params: params, Eval: obj, TimeLimit: 60, EarlyStop: 60, Rounds: 1, Workers: 1, Seed: 5}
	_, best := e.Run()
	if int(best["mode"]) != 2 {
		t.Errorf("best mode = %v (%s), want 2 (good)",
			best["mode"], params[0].Choices[int(best["mode"])])
	}
}

func TestEarlyStopTerminates(t *testing.T) {
	evals := 0
	e := &Explorer{
		Params:    []Param{{Name: "a", Kind: Uniform, Lo: 0, Hi: 1}},
		Eval:      func(Assignment) float64 { evals++; return 1.0 }, // flat: never improves
		TimeLimit: 1000,
		EarlyStop: 5,
		Rounds:    1,
		Workers:   1,
		Seed:      1,
	}
	e.Run()
	// Global pass: first eval improves (from +inf), then 5 non-improving.
	// One group pass behaves the same. Far fewer than TimeLimit each.
	if evals > 40 {
		t.Errorf("early stop did not engage: %d evals", evals)
	}
}

func TestParallelGroupsAreSafeAndDeterministicMerge(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	obj := func(x Assignment) float64 {
		mu.Lock()
		calls++
		mu.Unlock()
		return sphere(x)
	}
	e := &Explorer{
		Params:    sphereParams(),
		Eval:      obj,
		TimeLimit: 20,
		EarlyStop: 20,
		Rounds:    2,
		Seed:      11,
	}
	final, _ := e.Run()
	if calls == 0 {
		t.Fatal("no evaluations")
	}
	for _, p := range sphereParams() {
		if _, ok := final[p.Name]; !ok {
			t.Errorf("final missing %s", p.Name)
		}
	}
}

func TestUpdateRangesShrinksTowardOptimum(t *testing.T) {
	params := []Param{{Name: "a", Kind: Uniform, Lo: 0, Hi: 100}}
	ranges := map[string]Range{"a": {0, 100}}
	var obs []Observation
	// Good observations clustered near 30.
	for i := 0; i < 20; i++ {
		v := float64(i * 5)
		y := math.Abs(v - 30)
		obs = append(obs, Observation{X: Assignment{"a": v}, Y: y})
	}
	nr := updateRanges(params, ranges, obs, 0.25)
	r := nr["a"]
	if r.Lo < 5 || r.Hi > 60 {
		t.Errorf("range did not shrink toward 30: [%v, %v]", r.Lo, r.Hi)
	}
	if !(r.Lo <= 30 && 30 <= r.Hi) {
		t.Errorf("range excludes the optimum: [%v, %v]", r.Lo, r.Hi)
	}
}

func TestSuggestStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	params := []Param{
		{Name: "u", Kind: Uniform, Lo: -5, Hi: 5},
		{Name: "l", Kind: LogUniform, Lo: 0.01, Hi: 10},
		{Name: "i", Kind: IntUniform, Lo: 2, Hi: 9},
		{Name: "c", Kind: Categorical, Choices: []string{"x", "y", "z"}},
	}
	ranges := map[string]Range{
		"u": {-5, 5}, "l": {0.01, 10}, "i": {2, 9}, "c": {0, 2},
	}
	tpe := DefaultTPE()
	var obs []Observation
	for k := 0; k < 60; k++ {
		x := tpe.Suggest(rng, params, ranges, obs)
		if x["u"] < -5 || x["u"] > 5 {
			t.Fatalf("u out of range: %v", x["u"])
		}
		if x["l"] < 0.01 || x["l"] > 10 {
			t.Fatalf("l out of range: %v", x["l"])
		}
		if x["i"] < 2 || x["i"] > 9 || x["i"] != math.Round(x["i"]) {
			t.Fatalf("i invalid: %v", x["i"])
		}
		if ci := int(x["c"]); ci < 0 || ci > 2 {
			t.Fatalf("c invalid: %v", x["c"])
		}
		obs = append(obs, Observation{X: x, Y: rng.Float64()})
	}
}

func TestRunIsDeterministicSequential(t *testing.T) {
	run := func() Assignment {
		e := &Explorer{
			Params:    sphereParams(),
			Eval:      sphere,
			TimeLimit: 25,
			EarlyStop: 25,
			Rounds:    2,
			Workers:   1,
			Seed:      99,
		}
		final, _ := e.Run()
		return final
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("nondeterministic result for %s: %v vs %v", k, v, b[k])
		}
	}
}
