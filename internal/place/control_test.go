package place

import (
	"math"
	"testing"

	"puffer/internal/netlist"
)

// ctlStep is one synthetic GP iteration fed to the controller: the
// overflow it measures and whether the hook pads after it.
type ctlStep struct {
	ovf   float64
	round bool
}

// flat returns n iterations at overflow ovf.
func flat(n int, ovf float64) []ctlStep {
	out := make([]ctlStep, n)
	for k := range out {
		out[k] = ctlStep{ovf: ovf}
	}
	return out
}

// padAt returns one iteration at overflow ovf after which the hook pads.
func padAt(ovf float64) []ctlStep { return []ctlStep{{ovf: ovf, round: true}} }

// descend returns n iterations whose overflow falls by 1 % each from ovf.
func descend(n int, ovf float64) []ctlStep {
	out := make([]ctlStep, n)
	for k := range out {
		out[k] = ctlStep{ovf: ovf * math.Pow(0.99, float64(k))}
	}
	return out
}

func concat(seqs ...[]ctlStep) []ctlStep {
	var out []ctlStep
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// driveControl runs the controller over seq as RunCtx does, at a steady
// HPWL (so λ grows by LambdaMu every iteration) and with one movable cell
// whose x coordinate is the iteration number, so the snapshot names the
// iterate it holds. It returns the stop iteration (0: the sequence ran out)
// and the controller.
func driveControl(cfg Config, seq []ctlStep) (int, *control) {
	c := newControl(cfg, 1)
	c.start(1, 100)
	xs, ys := make([]float64, 1), make([]float64, 1)
	for i, s := range seq {
		iter := i + 1
		xs[0], ys[0] = float64(iter), -float64(iter)
		if c.observe(iter, s.ovf, xs, ys) {
			return iter, &c
		}
		if s.round {
			c.round(iter)
		}
		c.adapt(100)
	}
	return 0, &c
}

// TestControlRules drives the controller with synthetic overflow sequences
// and no placement.
func TestControlRules(t *testing.T) {
	cfg := Config{MinIters: 5, StopOverflow: 0.07, PlateauIters: 50, LambdaMu: 1.05}
	// λ grows 1.05× per iteration at a steady HPWL: 4× takes 29 iterations.
	growth := int(math.Ceil(math.Log(lambdaStopGrowth) / math.Log(cfg.LambdaMu)))
	cases := []struct {
		name     string
		plateau  int // Config.PlateauIters when not 50
		seq      []ctlStep
		stopAt   int    // 0: no stop
		stop     string // reason when stopAt > 0
		bestIter int
		snapped  bool
	}{
		{
			// No round: the plateau guard counts from the run's best, and
			// nothing is snapped however far λ climbs.
			name:   "no round",
			seq:    concat(descend(10, 0.5), flat(200, 0.5)),
			stopAt: 10 + 50, stop: StopPlateau, bestIter: 10,
		},
		{
			name:   "target first",
			seq:    concat(descend(10, 0.5), flat(3, 0.06)),
			stopAt: 11, stop: StopTarget, bestIter: 11,
		},
		{
			name:   "target waits for MinIters",
			seq:    flat(10, 0.01),
			stopAt: 5, stop: StopTarget, bestIter: 1,
		},
		{
			// A round resets the best: the post-round iterates, at higher
			// overflow than the pre-round best, become the new best, and
			// λ growth from there stops the run. The round's own iterate
			// (21, measured before its padding) is not a candidate.
			name:   "best resets at a round",
			seq:    concat(descend(20, 0.3), padAt(0.2), descend(5, 0.25), flat(100, 0.24)),
			stopAt: 26 + growth, stop: StopLambda, bestIter: 26,
			snapped: true,
		},
		{
			// Without the reset the guard would count from iteration 10
			// and stop at 30.
			name:    "plateau counts from the round",
			plateau: 20,
			seq:     concat(descend(10, 0.3), flat(10, 0.5), padAt(0.5), flat(200, 0.9)),
			stopAt:  22 + 20, stop: StopPlateau, bestIter: 22, snapped: true,
		},
		{
			// Overflow that creeps down by less than 0.1 % in all is no
			// new best, so λ still stops the run.
			name:   "a creeping overflow does not reset the λ clock",
			seq:    concat(flat(10, 0.3), padAt(0.2), creep(100, 0.2)),
			stopAt: 12 + growth, stop: StopLambda, bestIter: 12, snapped: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			if tc.plateau > 0 {
				cfg.PlateauIters = tc.plateau
			}
			stopAt, c := driveControl(cfg, tc.seq)
			if stopAt != tc.stopAt {
				t.Fatalf("stopped at %d (%q), want %d", stopAt, c.stop, tc.stopAt)
			}
			if stopAt > 0 && c.stop != tc.stop {
				t.Errorf("stop %q, want %q", c.stop, tc.stop)
			}
			if c.bestIter != tc.bestIter {
				t.Errorf("best iteration %d, want %d", c.bestIter, tc.bestIter)
			}
			if c.snapped != tc.snapped {
				t.Fatalf("snapped = %v, want %v", c.snapped, tc.snapped)
			}
			if c.snapped && (c.snap[0] != float64(c.bestIter) || c.snap[1] != -float64(c.bestIter)) {
				t.Errorf("snapshot holds iterate (%v, %v), want the best's, %d", c.snap[0], c.snap[1], c.bestIter)
			}
		})
	}
}

// creep returns n iterations whose overflow falls from ovf by 0.09 % in
// all.
func creep(n int, ovf float64) []ctlStep {
	out := make([]ctlStep, n)
	for k := range out {
		out[k] = ctlStep{ovf: ovf * (1 - 0.0009*float64(k)/float64(n))}
	}
	return out
}

// TestControlRestoreThreshold: the best iterate since the last round is
// handed back only when the final overflow is more than 1 % worse, and
// never when no round ran.
func TestControlRestoreThreshold(t *testing.T) {
	cfg := Config{MinIters: 5, PlateauIters: 1000, LambdaMu: 1.05}
	_, c := driveControl(cfg, concat(flat(10, 0.5), padAt(0.3), flat(1, 0.2)))
	if !c.snapped || c.best != 0.2 {
		t.Fatalf("snapped=%v best=%v, want the post-round 0.2", c.snapped, c.best)
	}
	for _, tc := range []struct {
		final float64
		want  bool
	}{
		{0.2, false},
		{0.2 * 1.0099, false},
		{0.2 * 1.0101, true},
		{0.3, true},
	} {
		if got := c.restore(tc.final); got != tc.want {
			t.Errorf("restore(%v) = %v, want %v", tc.final, got, tc.want)
		}
	}

	_, c = driveControl(cfg, concat(descend(10, 0.5), flat(30, 0.9)))
	if c.snapped || c.restore(0.9) {
		t.Error("a run with no round snapped or restored its best iterate")
	}
	// The λ schedule is the one RunCtx always ran: full growth at steady
	// HPWL, back-off when HPWL grows by more than 3 %.
	c.start(1, 100)
	c.adapt(100)
	if c.lambda != 1.05 {
		t.Errorf("λ = %v after a steady iteration, want 1.05", c.lambda)
	}
	c.adapt(110)
	if math.Abs(c.lambda-1) > 1e-12 {
		t.Errorf("λ = %v after +10 %% HPWL, want 1", c.lambda)
	}
}

// TestNoRoundOnTheStopIteration: the engine asks the hook only on
// iterations it goes on from, so a round's padding is always spread by at
// least one step before GP hands the placement on. The hook here reports a
// round on every call once overflow is under τ = 0.15, as a trigger with no
// cooldown would; it changes no padding, so GP still reaches its target.
func TestNoRoundOnTheStopIteration(t *testing.T) {
	d := smallDesign(6, 200, false)
	cfg := quickConfig()
	cfg.StopOverflow = 0.1
	last := 0
	res := mustNew(d, cfg).Run(HookFunc(func(iter int, overflow float64) bool {
		last = iter
		return overflow < 0.15
	}))
	if res.Stop != StopTarget {
		t.Fatalf("stopped on %q at iteration %d, want %q", res.Stop, res.Iters, StopTarget)
	}
	if last >= res.Iters || res.Trace[len(res.Trace)-1].Padded {
		t.Errorf("the hook ran at iteration %d and GP stopped at %d (last padded: %v)",
			last, res.Iters, res.Trace[len(res.Trace)-1].Padded)
	}
	if res.Trace[len(res.Trace)-2].Padded != true {
		t.Error("the hook did not pad on the iteration before the stop; the scenario lost its point")
	}
}

// summaryFromTrace recomputes from a run's per-iteration trace alone, by
// the rules DESIGN.md §3f states: the stop reason, the best iteration since
// the last round, its overflow, and whether that iterate was snapped (a
// round ran before it), so the run could hand it back.
func summaryFromTrace(cfg Config, tr []IterStats) (stop string, bestIter int, best float64, snapped bool) {
	best = math.Inf(1)
	bestLambda := 0.0
	rounds := 0
	for _, it := range tr {
		if it.Overflow < best*0.999 {
			best, bestIter, bestLambda, snapped = it.Overflow, it.Iter, it.Lambda, rounds > 0
		}
		if it.Padded {
			rounds++
			best, bestIter, snapped = math.Inf(1), it.Iter, false
		}
	}
	last := tr[len(tr)-1]
	switch {
	case last.Iter < cfg.MinIters:
		stop = StopMaxIters
	case last.Overflow <= cfg.StopOverflow:
		stop = StopTarget
	case cfg.PlateauIters > 0 && last.Iter-bestIter >= cfg.PlateauIters:
		stop = StopPlateau
	case snapped && last.Lambda >= 4*bestLambda:
		stop = StopLambda
	default:
		stop = StopMaxIters
	}
	return stop, bestIter, best, snapped
}

// TestRunSummaryMatchesTrace recomputes Result.Stop, BestIter and Restored
// from Result.Trace on runs that end on each rule.
func TestRunSummaryMatchesTrace(t *testing.T) {
	padOnce := func(d *netlist.Design, at int) Hook {
		return HookFunc(func(iter int, _ float64) bool {
			if iter != at {
				return false
			}
			for i := range d.Cells {
				d.Cells[i].PadW = 0.5
			}
			return true
		})
	}
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		round int // iteration the hook pads at; 0 for no hook
		want  string
	}{
		{name: "target", edit: func(c *Config) { c.StopOverflow = 0.1 }, want: StopTarget},
		{
			// Half the default window, so the plateau rule fires well
			// inside MaxIters.
			name: "plateau", want: StopPlateau,
			edit: func(c *Config) { c.PlateauIters = 60 },
		},
		{name: "max_iters", edit: func(c *Config) { c.MaxIters = 30 }, want: StopMaxIters},
		{
			// A steep λ schedule, so λ grows 4× past the post-round best
			// well inside MaxIters.
			name: "lambda", round: 60, want: StopLambda,
			edit: func(c *Config) { c.StopOverflow, c.PlateauIters, c.LambdaMu = -1, 0, 1.2 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := smallDesign(8, 300, false)
			cfg := quickConfig()
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			var hook Hook
			if tc.round > 0 {
				hook = padOnce(d, tc.round)
			}
			res := mustNew(d, cfg).Run(hook)
			// λ follows its schedule through every iteration, a round's
			// included: nothing re-derives it.
			tr := res.Trace
			for k := 1; k+1 < len(tr); k++ {
				arg := math.Max(-1, math.Min(1, 1-(tr[k].HPWL-tr[k-1].HPWL)/(0.03*tr[k].HPWL)))
				if want := tr[k].Lambda * math.Pow(cfg.LambdaMu, arg); math.Abs(tr[k+1].Lambda-want) > 1e-12*want {
					t.Fatalf("λ %v at iteration %d, want %v from its schedule (padded: %v)",
						tr[k+1].Lambda, tr[k+1].Iter, want, tr[k+1].Padded)
				}
			}
			stop, bestIter, best, snapped := summaryFromTrace(cfg, res.Trace)
			if res.Stop != tc.want || stop != tc.want {
				t.Fatalf("stop %q, from the trace %q, want %q", res.Stop, stop, tc.want)
			}
			if res.BestIter != bestIter {
				t.Errorf("best iteration %d, from the trace %d", res.BestIter, bestIter)
			}
			switch {
			case res.Restored && (!snapped || res.Overflow != best):
				t.Errorf("restored, but the overflow %v is not the best since the round, %v", res.Overflow, best)
			case !res.Restored && snapped && res.Overflow > best*1.01:
				t.Errorf("not restored at overflow %v, more than 1 %% above the best since the round, %v", res.Overflow, best)
			case !res.Restored && stop != StopMaxIters && res.Overflow != res.Trace[len(res.Trace)-1].Overflow:
				t.Errorf("overflow %v is not the last iterate's, %v", res.Overflow, res.Trace[len(res.Trace)-1].Overflow)
			}
		})
	}
}
