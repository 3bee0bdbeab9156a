package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"puffer"
	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/pipeline"
)

// ecoDeltasPerSecond sizes the delta chain from -seconds: a delta on
// OR1200/40 takes ≈0.4 s on the authoring machine and the cold place ≈3.5 s,
// so 2 deltas per requested second fill the run. The count is fixed by the
// arguments, not by the clock, because hpwl is read after the last delta
// and must not depend on how fast the machine is.
const ecoDeltasPerSecond = 2

// ecoColdReps is how many times the untraced run opens a session and places
// it cold; place_s is the median, the chain continues on the last session.
const ecoColdReps = 3

func ecoDeltaCount(seconds float64) int {
	n := int(seconds * ecoDeltasPerSecond)
	if n < 10 {
		n = 10
	}
	return n
}

// ecoOutcome is what one session (cold place + delta chain) measured.
type ecoOutcome struct {
	coldS   float64   // median over the cold places
	deltaS  []float64 // Session.Apply wall per delta
	gpMS    []float64 // per-delta stage walls, from the Result Apply returns
	legalMS []float64
	dpMS    []float64
	gpIters []float64
	// measured only when probing layers (traced runs)
	parseValidateUS []float64
	snapshotMS      float64
	estHitRate      float64 // session estimator's journal hit rate
	hpwl            float64 // after the last delta
	final           *netlist.Design
}

// ecoChain opens a session on a clone of base and places it cold, coldReps
// times; on the last session it applies n seeded deltas. Legality is
// verified after every placement. With a tracer it also records a span per placement and times delta
// parsing/validation and the session snapshot, which the untraced run
// leaves out of its loop.
func (h *harness) ecoChain(ctx context.Context, res *runResult, base *netlist.Design, coldReps, n int, deltaSeed int64, tr *obs.Tracer) (*ecoOutcome, error) {
	layers := tr != nil
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	out := &ecoOutcome{}
	var (
		sess  *eco.Session
		coldS []float64
		t0    time.Time
	)
	for i := 0; i < coldReps; i++ {
		d := base.Clone()
		sp := tr.StartSpan("eco.place")
		t0 = time.Now()
		s, err := eco.New(d, h.flowConfig(), eco.Options{})
		if err != nil {
			return nil, fmt.Errorf("eco.New: %w", err)
		}
		cold, err := s.Place(ctx)
		coldS = append(coldS, time.Since(t0).Seconds())
		sp.End()
		if err == nil {
			err = checkPlacement(d, cold.HPWL)
		}
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("cold place: %w", err)
		}
		sess = s
	}
	out.coldS = median(coldS)

	gen := newDeltaGen(sess.Design(), deltaSeed)
	for i := 0; i < n; i++ {
		dl := gen.next(sess.Design())
		if layers {
			doc, err := json.Marshal(dl)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			parsed, err := eco.ParseDelta(doc)
			if err == nil {
				err = parsed.Validate(sess.Design())
			}
			out.parseValidateUS = append(out.parseValidateUS, time.Since(t0).Seconds()*1e6)
			if err != nil {
				return nil, fmt.Errorf("delta %d does not parse back: %w", i+1, err)
			}
		}
		sp := tr.StartSpan("eco.apply")
		t0 = time.Now()
		r, err := sess.Apply(ctx, dl)
		wall := time.Since(t0).Seconds()
		sp.End()
		if err == nil {
			err = checkPlacement(sess.Design(), r.HPWL)
		}
		res.op(err)
		if err != nil {
			h.logf("delta %d failed: %v", i+1, err)
			continue
		}
		out.deltaS = append(out.deltaS, wall)
		// The pipeline stages are the tail of Apply (the padding refresh
		// precedes them), so their spans are laid out back from its end.
		cursor := t0.Add(time.Duration(wall * float64(time.Second)))
		for _, st := range r.Stages {
			cursor = cursor.Add(-st.Wall)
		}
		for _, st := range r.Stages {
			sp.RecordChild("eco.stage."+st.Name, cursor, st.Wall)
			cursor = cursor.Add(st.Wall)
			ms := st.Wall.Seconds() * 1e3
			switch st.Name {
			case pipeline.StagePlace:
				out.gpMS = append(out.gpMS, ms)
				out.gpIters = append(out.gpIters, float64(st.Iters))
			case pipeline.StageLegal:
				out.legalMS = append(out.legalMS, ms)
			case pipeline.StageDP:
				out.dpMS = append(out.dpMS, ms)
			}
		}
	}
	if len(out.deltaS) == 0 {
		return nil, fmt.Errorf("no delta succeeded")
	}
	if layers {
		t0 = time.Now()
		sn, err := sess.Snapshot()
		if err == nil {
			out.estHitRate = sn.EstHitRate
			err = sn.Save(filepath.Join(h.workDir, "eco-snapshot.json"))
		}
		out.snapshotMS = time.Since(t0).Seconds() * 1e3
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	out.hpwl = sess.LastHPWL()
	out.final = sess.Design()
	return out, nil
}

// runEco is the untraced eco_chain run. An op is one delta; the cold place
// is place_s, and the evaluation router judges the placement the chain
// ends on.
func (h *harness) runEco(ctx context.Context) *runResult {
	res := newRunResult(wlEcoChain, h.seed, h.seconds, false)
	base, setupS, err := medianOf(setupReps, func() (*netlist.Design, error) { return designEco.generate(h.seed) })
	if err != nil {
		res.op(fmt.Errorf("setup: %w", err))
		return res
	}
	res.set("setup_s", setupS)
	st := base.Stats()
	n := ecoDeltaCount(h.seconds)
	res.note("design", "%s/%d seed %d: %d movable cells, %d nets", designEco.Profile, designEco.Scale, h.seed, st.Cells, st.Nets)

	out, err := h.ecoChain(ctx, res, base, ecoColdReps, n, subSeed(h.seed, 1), nil)
	if err != nil {
		res.fail(err)
		return res
	}
	rr := puffer.Evaluate(out.final, h.evalConfig())
	if err := checkRouting(quality{HPWL: out.hpwl, RoutedWL: rr.WL, HOF: rr.HOF, VOF: rr.VOF}); err != nil {
		res.fail(err)
	}
	tail, tailP := tailOf(out.deltaS)
	res.note("ops", "%d cold places + %d deltas; op_s_tail is p%.0f", ecoColdReps, len(out.deltaS), tailP)
	h.logf("%s: cold %.2fs, %d deltas p50 %.3fs, hpwl %.0f", wlEcoChain, out.coldS, len(out.deltaS), median(out.deltaS), out.hpwl)
	sum := 0.0
	for _, s := range out.deltaS {
		sum += s
	}
	res.set("place_s", out.coldS)
	res.set("hpwl", out.hpwl)
	res.set("routed_wl", rr.WL)
	res.set("op_s_p50", median(out.deltaS))
	res.set("op_s_tail", tail)
	res.set("ops_per_s", float64(len(out.deltaS))/sum)
	return res
}
