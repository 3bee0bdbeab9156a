package main

import (
	"context"
	"fmt"
	"time"

	"puffer"
	"puffer/internal/netlist"
	"puffer/internal/router"
)

// harness carries the settings shared by every workload of one invocation.
type harness struct {
	seed    int64
	seconds float64
	// workers is W = min(nproc, 4): Config.Workers of every in-process
	// flow (the service workload pins each job to 1 worker instead).
	workers int
	// pufferd is the daemon binary the service workload and the traced
	// companion probe boot; run.sh builds it outside any timed region.
	pufferd string
	// workDir holds everything a run writes besides its results: temp
	// spools, uploaded designs, downloaded artifacts.
	workDir string
	// resultsDir receives trace-<workload>.json of traced runs.
	resultsDir string
	logf       func(format string, args ...any)
}

// opTimeout bounds one in-process op (a cold place of the largest design
// takes ≈30 s on the authoring machine).
const opTimeout = 170 * time.Second

// setupReps is how often the cheap in-process set-up is repeated; setup_s
// is the median.
const setupReps = 15

// medianOf runs fn n times and returns the last value it produced with the
// median wall time of a call, in seconds.
func medianOf[T any](n int, fn func() (T, error)) (T, float64, error) {
	var (
		last  T
		walls []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		last = v
	}
	return last, median(walls), nil
}

func (h *harness) flowConfig() puffer.Config {
	cfg := puffer.DefaultConfig()
	cfg.Workers = h.workers
	return cfg
}

func (h *harness) evalConfig() router.Config {
	cfg := puffer.EvalConfig()
	cfg.Workers = h.workers
	return cfg
}

// placeRep is one closed-loop op of the place_* workloads: a cold
// puffer.RunCtx followed by puffer.Evaluate on the same design.
type placeRep struct {
	placeS, routeS float64
	q              quality
	res            *puffer.Result
	rr             *router.Result
	d              *netlist.Design
}

func (r placeRep) opS() float64 { return r.placeS + r.routeS }

// placeOnce runs one rep on a clone of base and verifies its outputs.
func (h *harness) placeOnce(ctx context.Context, base *netlist.Design) (placeRep, error) {
	d := base.Clone()
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := puffer.RunCtx(ctx, d, h.flowConfig())
	rep := placeRep{placeS: time.Since(t0).Seconds(), res: res, d: d}
	if err != nil {
		return rep, err
	}
	t0 = time.Now()
	rep.rr = puffer.Evaluate(d, h.evalConfig())
	rep.routeS = time.Since(t0).Seconds()
	rep.q = quality{HPWL: res.HPWL, RoutedWL: rep.rr.WL, HOF: rep.rr.HOF, VOF: rep.rr.VOF}
	if err := checkPlacement(d, res.HPWL); err != nil {
		return rep, err
	}
	return rep, checkRouting(rep.q)
}

// runPlace is the untraced run of place_congested / place_large_calm: reps
// fill -seconds (at least one), every rep is verified, and reps must agree
// bit for bit.
func (h *harness) runPlace(ctx context.Context, name string, spec designSpec) *runResult {
	res := newRunResult(name, h.seed, h.seconds, false)
	base, setupS, err := medianOf(setupReps, func() (*netlist.Design, error) { return spec.generate(h.seed) })
	if err != nil {
		res.op(fmt.Errorf("setup: %w", err))
		return res
	}
	res.set("setup_s", setupS)
	st := base.Stats()
	res.note("design", "%s/%d seed %d: %d movable cells, %d nets", spec.Profile, spec.Scale, h.seed, st.Cells, st.Nets)

	// A rep starts only while at least half of it still fits in -seconds,
	// so a rep about as long as the window runs once, not twice.
	var reps []placeRep
	measured, last := 0.0, 0.0
	for len(reps) == 0 || measured+last/2 <= h.seconds {
		rep, err := h.placeOnce(ctx, base)
		res.op(err)
		if err != nil {
			break
		}
		if len(reps) > 0 {
			if err := checkSameQuality("reps of one design", reps[0].q, rep.q); err != nil {
				res.fail(err)
			}
		}
		last = rep.opS()
		measured += last
		h.logf("%s rep %d: place %.2fs route %.2fs hpwl %.0f hof %.3f%% vof %.3f%%",
			name, len(reps)+1, rep.placeS, rep.routeS, rep.q.HPWL, rep.q.HOF, rep.q.VOF)
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		return res
	}
	var placeS, opS []float64
	for _, r := range reps {
		placeS = append(placeS, r.placeS)
		opS = append(opS, r.opS())
	}
	tail, tailP := tailOf(opS)
	res.note("ops", "%d reps; op_s_tail is p%.0f", len(reps), tailP)
	res.set("place_s", median(placeS))
	res.set("hpwl", reps[0].q.HPWL)
	res.set("routed_wl", reps[0].q.RoutedWL)
	res.set("op_s_p50", median(opS))
	res.set("op_s_tail", tail)
	res.set("ops_per_s", float64(len(reps))/measured)
	return res
}
