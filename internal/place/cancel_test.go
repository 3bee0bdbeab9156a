package place

import (
	"context"
	"errors"
	"testing"

	"puffer/internal/flow"
)

// TestRunCtxCancelStopsWithinOneIteration cancels from inside the
// per-iteration hook and checks the engine stops on the very next
// loop-top context check, leaving a valid in-region placement.
func TestRunCtxCancelStopsWithinOneIteration(t *testing.T) {
	d := smallDesign(1, 60, false)
	cfg := quickConfig()
	cfg.MaxIters = 400
	cfg.StopOverflow = 1e-9 // never converge on its own
	p := mustNew(d, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 5
	lastHooked := 0
	hook := HookFunc(func(iter int, overflow float64) bool {
		lastHooked = iter
		if iter == cancelAt {
			cancel()
		}
		return false
	})
	res, err := p.RunCtx(ctx, hook)
	if err == nil {
		t.Fatal("canceled placement returned nil error")
	}
	if !errors.Is(err, flow.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if lastHooked > cancelAt {
		t.Errorf("hook ran at iter %d, more than one iteration past the cancel at %d", lastHooked, cancelAt)
	}
	if res == nil {
		t.Fatal("canceled placement returned nil result")
	}
	if res.Stop != StopCanceled {
		t.Errorf("stop = %q, want %q", res.Stop, StopCanceled)
	}
	if res.HPWL <= 0 {
		t.Error("canceled placement did not report HPWL of the partial state")
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		if c.X < d.Region.Lo.X-1e-6 || c.X+c.W > d.Region.Hi.X+1e-6 ||
			c.Y < d.Region.Lo.Y-1e-6 || c.Y+c.H > d.Region.Hi.Y+1e-6 {
			t.Fatalf("cell %d outside region after cancel", i)
		}
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	d := smallDesign(2, 30, false)
	p := mustNew(d, quickConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunCtx(ctx, nil); !errors.Is(err, flow.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
