package explore

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"puffer/internal/flow"
	"puffer/internal/obs"
)

func twoGroupParams() []Param {
	return []Param{
		{Name: "a", Kind: Uniform, Lo: -2, Hi: 2, Group: "g1"},
		{Name: "b", Kind: Uniform, Lo: -2, Hi: 2, Group: "g1"},
		{Name: "c", Kind: Uniform, Lo: -2, Hi: 2, Group: "g2"},
	}
}

func sumsq(a Assignment) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return s
}

// TestRunCtxCancelStopsWithinOneTrial cancels from inside the objective
// and checks the exploration stops before scheduling a full extra trial,
// while still returning a usable assignment.
func TestRunCtxCancelStopsWithinOneTrial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 7
	var evals atomic.Int64
	e := &Explorer{
		Params: twoGroupParams(),
		Eval: func(a Assignment) float64 {
			if evals.Add(1) == cancelAt {
				cancel()
			}
			return sumsq(a)
		},
		TimeLimit: 50, EarlyStop: 50, Rounds: 3, Workers: 1, Seed: 11,
	}
	final, err := e.RunCtx(ctx)
	if !errors.Is(err, flow.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// Sequential groups: after the canceling eval returns, the next
	// per-trial check fires and no further trial starts.
	if n := evals.Load(); n > cancelAt {
		t.Errorf("%d evaluations ran, cancel at %d scheduled extra trials", n, cancelAt)
	}
	if len(final) == 0 {
		t.Error("canceled exploration returned an empty assignment")
	}
	if len(e.History()) == 0 {
		t.Error("canceled exploration lost its history")
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var evals atomic.Int64
	e := &Explorer{
		Params:    twoGroupParams(),
		Eval:      func(a Assignment) float64 { evals.Add(1); return sumsq(a) },
		TimeLimit: 20, EarlyStop: 20, Rounds: 2, Workers: 1, Seed: 3,
	}
	_, err := e.RunCtx(ctx)
	if !errors.Is(err, flow.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := evals.Load(); n != 0 {
		t.Errorf("%d evaluations ran under a pre-canceled context", n)
	}
}

// TestHistoryIndependentOfWorkers: with the groups exploring in parallel,
// each round's trials still join the history and the trial-score series in
// group order, so a run on one worker and a parallel run record the same
// sequence. The objective sleeps so the parallel groups' trials interleave.
func TestHistoryIndependentOfWorkers(t *testing.T) {
	run := func(workers int) ([]Observation, []obs.Sample) {
		reg := obs.NewRegistry()
		e := &Explorer{
			Params: twoGroupParams(),
			Eval: func(a Assignment) float64 {
				time.Sleep(200 * time.Microsecond)
				return a["a"]*a["a"] + a["b"]*a["b"] + a["c"]*a["c"] // fixed order: the same bits every run
			},
			TimeLimit: 12, EarlyStop: 12, Rounds: 2, Workers: workers, Seed: 5,
			Obs: obs.NewRecorder(nil, reg),
		}
		e.Run()
		return e.History(), reg.Series("explore.trial.score").Samples()
	}
	wantH, wantS := run(1)
	for i := 0; i < 3; i++ {
		gotH, gotS := run(0)
		if !reflect.DeepEqual(gotH, wantH) {
			t.Fatalf("run %d: parallel history differs from the one-worker history", i)
		}
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("run %d: parallel explore.trial.score series differs from the one-worker series", i)
		}
	}
}
