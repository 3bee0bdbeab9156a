package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"puffer/internal/cong"
	"puffer/internal/density"
	"puffer/internal/feature"
	"puffer/internal/fft"
	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/nesterov"
	"puffer/internal/netlist"
	"puffer/internal/padding"
	"puffer/internal/rsmt"
	"puffer/internal/wirelength"
)

// Kernel replays: each public kernel is called repeatedly on clones of the
// design states the traced run captured (GP iterations 50 and 300, and the
// final placement), at Workers=1 and Workers=W. They give the per-call
// cost of a kernel on the run's own states; the split of place.gp_iter_ms
// into in-run kernel totals is left to the in-program tracing issue.

const (
	kernelCalls = 20 // timed calls per kernel, state and worker count
	slowCalls   = 5  // for calls that need a fresh design clone each time
)

// timeCalls runs fn n times after one untimed warm-up call and returns the
// median wall in milliseconds.
func timeCalls(n int, fn func()) float64 {
	fn()
	walls := make([]float64, n)
	for i := range walls {
		t0 := time.Now()
		fn()
		walls[i] = time.Since(t0).Seconds() * 1e3
	}
	return median(walls)
}

// replayState is one captured design state, materialised as a clone.
type replayState struct {
	d     *netlist.Design
	gamma float64
}

func (pt *placeTrace) replayStates() ([]replayState, error) {
	var states []replayState
	lastGamma := 0.0
	for _, c := range pt.gp.captures {
		d := pt.base.Clone()
		if err := c.cp.Apply(d); err != nil {
			return nil, err
		}
		states = append(states, replayState{d, c.gamma})
	}
	if tr := pt.res.GP.Trace; len(tr) > 0 {
		lastGamma = tr[len(tr)-1].Gamma
	}
	return append(states, replayState{pt.final.Clone(), lastGamma}), nil
}

// movableRects returns the padded outlines of the movable cells, shifted
// by dx: what the placer deposits each iteration (fillers excluded — their
// count is the placer's private choice).
func movableRects(d *netlist.Design, dx float64) []geom.Rect {
	var rects []geom.Rect
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed {
			r := c.PaddedRect()
			rects = append(rects, geom.RectWH(r.Lo.X+dx, r.Lo.Y, r.W(), r.H()))
		}
	}
	return rects
}

// kernelReplays fills the wirelength, density, fft, nesterov, rsmt, cong,
// feature, padding.self and legal.check metrics.
func (h *harness) kernelReplays(res *runResult, pt *placeTrace) error {
	states, err := pt.replayStates()
	if err != nil {
		return err
	}
	W := h.workers
	counts := []int{1, W}
	if W == 1 {
		counts = counts[:1]
	}
	// per-state medians; the maps are keyed by worker count
	wl, dep, sol := map[int][]float64{}, map[int][]float64{}, map[int][]float64{}
	var force, scratch, incr, extract, padSelf, rsmtUS, estAllocs []float64
	memo := rsmt.NewMemo(0)
	deposits := 0 // alternates the two rect lists across every loop below
	for _, st := range states {
		d := st.d

		// WA wirelength gradient.
		m := wirelength.New(d, st.gamma)
		m.Kind = pt.cfg.Place.WLModel
		gx, gy := make([]float64, len(d.Cells)), make([]float64, len(d.Cells))
		for _, w := range counts {
			m.SetWorkers(w)
			wl[w] = append(wl[w], timeCalls(kernelCalls, func() { m.WirelengthAndGrad(gx, gy) }))
		}

		// Density: rasterize, spectral solve, force sweep. Two rect lists
		// alternate so the deposit fingerprint never lets Solve skip.
		g := density.NewGrid(d.Region, pt.gp.gridM, pt.gp.gridN)
		for i := range d.Cells {
			if d.Cells[i].Fixed {
				g.AddFixedRect(d.Cells[i].Rect(), 1)
			}
		}
		lists := [2][]geom.Rect{movableRects(d, 0), movableRects(d, g.BinW/7)}
		for _, w := range counts {
			g.SetWorkers(w)
			var depMS, solMS []float64
			skips := g.SolveSkips()
			for i := 0; i <= kernelCalls; i++ {
				t0 := time.Now()
				g.DepositRects(lists[deposits%2])
				deposits++
				t1 := time.Now()
				g.Solve()
				t2 := time.Now()
				if i > 0 { // call 0 warms up
					depMS = append(depMS, t1.Sub(t0).Seconds()*1e3)
					solMS = append(solMS, t2.Sub(t1).Seconds()*1e3)
				}
			}
			if g.SolveSkips() != skips {
				return fmt.Errorf("density replay: %d solves were skipped; timings would be of no-ops", g.SolveSkips()-skips)
			}
			dep[w], sol[w] = append(dep[w], median(depMS)), append(sol[w], median(solMS))
		}
		force = append(force, timeCalls(kernelCalls, func() {
			for _, r := range lists[0] {
				g.ForceOnRect(r)
			}
		}))

		// RSMT: every net built directly, then twice through one memo
		// shared by all states (rsmt.memo_hit_rate).
		pts := make([][]geom.Point, len(d.Nets))
		for n := range d.Nets {
			for _, p := range d.Nets[n].Pins {
				pts[n] = append(pts[n], d.PinPos(p))
			}
		}
		rsmtUS = append(rsmtUS, 1e3*timeCalls(3, func() {
			for _, p := range pts {
				rsmt.Build(p)
			}
		})/float64(len(pts)))
		for pass := 0; pass < 2; pass++ {
			for _, p := range pts {
				memo.Build(p)
			}
		}

		// Congestion estimator: from scratch, then incrementally after
		// nudging 1 % of the movable cells by about a Gcell.
		cp := pt.cfg.Strategy.Cong
		cp.Workers = W
		est := cong.NewEstimator(d, pt.gridW, pt.gridH, cp)
		var ms0, ms1 runtime.MemStats
		est.ForceRebuild()
		est.Estimate()
		runtime.ReadMemStats(&ms0)
		scratchMS := timeCalls(kernelCalls/2, func() { est.ForceRebuild(); est.Estimate() })
		runtime.ReadMemStats(&ms1)
		scratch = append(scratch, scratchMS)
		estAllocs = append(estAllocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(kernelCalls/2+1))

		cm := est.Estimate()
		fp := pt.cfg.Strategy.Feat
		fp.Workers = W
		extractMS := timeCalls(kernelCalls/2, func() { feature.Extract(d, cm, est.Trees, fp) })
		extract = append(extract, extractMS)

		rng := rand.New(rand.NewSource(h.seed))
		movable := d.MovableIDs()
		var incrMS []float64
		for i := 0; i < kernelCalls/2; i++ {
			for k := share(len(movable), 0.01); k > 0; k-- {
				c := &d.Cells[movable[rng.Intn(len(movable))]]
				c.X = geom.Clamp(c.X+(rng.Float64()*2-1)*cm.GW, d.Region.Lo.X, d.Region.Hi.X-c.W)
				c.Y = geom.Clamp(c.Y+(rng.Float64()*2-1)*cm.GH, d.Region.Lo.Y, d.Region.Hi.Y-c.H)
			}
			t0 := time.Now()
			est.Estimate()
			incrMS = append(incrMS, time.Since(t0).Seconds()*1e3)
		}
		incr = append(incr, median(incrMS))

		// One routability-optimizer call on a fresh optimizer, minus the
		// estimate and the extraction it contains: Eq. 14–16 bookkeeping.
		strat := pt.cfg.Strategy
		strat.Cong.Workers, strat.Feat.Workers = W, W
		var runMS []float64
		for i := 0; i < slowCalls; i++ {
			dc := st.d.Clone()
			opt := padding.NewOptimizer(dc, pt.gridW, pt.gridH, strat)
			t0 := time.Now()
			opt.Run()
			runMS = append(runMS, time.Since(t0).Seconds()*1e3)
		}
		self := median(runMS) - scratchMS - extractMS
		if self < 0 {
			self = 0
		}
		padSelf = append(padSelf, self)
	}

	res.set("wirelength.grad_ms", mean(wl[W]))
	res.set("wirelength.pins_per_s", float64(len(pt.base.Pins))/(mean(wl[W])/1e3))
	res.set("wirelength.par_speedup", mean(wl[1])/mean(wl[W]))
	res.set("density.deposit_ms", mean(dep[W]))
	res.set("density.solve_ms", mean(sol[W]))
	res.set("density.force_ms", mean(force))
	res.set("density.par_speedup", (mean(dep[1])+mean(sol[1]))/(mean(dep[W])+mean(sol[W])))
	res.set("rsmt.build_us_per_net", mean(rsmtUS))
	hits, misses, _ := memo.Stats()
	res.set("rsmt.memo_hit_rate", float64(hits)/float64(hits+misses))
	res.set("cong.estimate_scratch_ms", mean(scratch))
	res.set("cong.estimate_incr_ms", mean(incr))
	res.set("cong.allocs_per_estimate", mean(estAllocs))
	res.set("feature.extract_ms", mean(extract))
	res.set("padding.self_ms", mean(padSelf))

	// Estimator-versus-router fidelity on the final placement.
	cp := pt.cfg.Strategy.Cong
	cp.Workers = W
	hof, vof := cong.NewEstimator(pt.final, pt.gridW, pt.gridH, cp).Estimate().OverflowRatios()
	res.set("cong.hof_err_pts", math.Abs(hof-pt.rr.HOF))
	res.set("cong.vof_err_pts", math.Abs(vof-pt.rr.VOF))

	res.set("legal.check_ms", timeCalls(slowCalls, func() { legal.Check(pt.final, 0) }))

	// One DCT row: analysis, potential and field synthesis.
	for _, n := range []int{128, 256} {
		plan := fft.NewRealPlan(n)
		row, coef, out := make([]float64, n), make([]float64, n), make([]float64, n)
		rng := rand.New(rand.NewSource(h.seed))
		for i := range row {
			row[i] = rng.Float64()
		}
		const batch = 50
		us := 1e3 * timeCalls(kernelCalls, func() {
			for i := 0; i < batch; i++ {
				plan.CosCoeffs(row, coef)
				plan.EvalCos(coef, out)
				plan.EvalSin(coef, out)
			}
		}) / batch
		res.set(fmt.Sprintf("fft.dct%d_us", n), us)
	}

	// Nesterov step minus its gradient callback, on a vector the size of
	// the placement problem.
	movable := pt.final.MovableIDs()
	x0 := make([]float64, 2*len(movable))
	for k, ci := range movable {
		c := pt.final.Cells[ci].Center()
		x0[k], x0[len(movable)+k] = c.X, c.Y
	}
	var evalWall time.Duration
	centre := pt.final.Region.Center()
	opt := nesterov.New(x0, func(x, grad []float64) {
		t0 := time.Now()
		for i := range x {
			target := centre.X
			if i >= len(movable) {
				target = centre.Y
			}
			grad[i] = x[i] - target
		}
		evalWall += time.Since(t0)
	}, 0.01)
	opt.SetWorkers(W)
	var stepUS []float64
	for i := 0; i <= kernelCalls; i++ {
		evalWall = 0
		t0 := time.Now()
		opt.Step(nil)
		if i > 0 {
			stepUS = append(stepUS, (time.Since(t0)-evalWall).Seconds()*1e6)
		}
	}
	res.set("nesterov.step_self_us", median(stepUS))
	return nil
}
