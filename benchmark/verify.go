package main

import (
	"fmt"
	"math"

	"puffer/internal/bookshelf"
	"puffer/internal/legal"
	"puffer/internal/netlist"
)

// runResult is everything one run of one workload reports: its metrics,
// and how many ops it attempted and how many of them failed verification.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
	OpsTotal int                `json:"ops_total"`
	OpsFail  int                `json:"ops_failed"`
	// Failures holds the first few failure reasons, for the log.
	Failures []string `json:"failures,omitempty"`
	// Notes carries facts about the run that are not metrics (sample
	// counts, the percentile op_s_tail reports, design sizes).
	Notes map[string]string `json:"notes,omitempty"`
}

func newRunResult(workload string, seed int64, seconds float64, traced bool) *runResult {
	return &runResult{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Notes: map[string]string{}}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

func (r *runResult) note(key, format string, args ...any) {
	r.Notes[key] = fmt.Sprintf(format, args...)
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *runResult) op(err error) {
	r.OpsTotal++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failure that is not a fresh op of its own (a failed
// cross-rep comparison, a harness-level check).
func (r *runResult) fail(err error) {
	r.OpsFail++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// catalog is the metric list of the run's mode: end-to-end for an untraced
// run, per-layer for a traced one.
func (r *runResult) catalog() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// checkCatalog fails the run when the metrics it recorded are not exactly
// the catalog of its mode — a metric named in BENCHMARK.json that was not
// measured, or one measured that is not named — or when a value is not a
// finite number.
func (r *runResult) checkCatalog() {
	defs := r.catalog()
	for _, m := range defs {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			r.fail(fmt.Errorf("harness: metric %s not measured", m.Name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail(fmt.Errorf("harness: metric %s is %v", m.Name, v))
		case !r.Traced && v <= 0:
			r.fail(fmt.Errorf("harness: end-to-end metric %s is %v, want > 0", m.Name, v))
		}
	}
	for name := range r.Metrics {
		if _, ok := metricByName(defs, name); !ok {
			r.fail(fmt.Errorf("harness: metric %s is not in the catalog", name))
		}
	}
}

// quality is the bit-comparable outcome of one placement.
type quality struct {
	HPWL, RoutedWL, HOF, VOF float64
}

// checkPlacement applies the output rules every produced placement must
// pass: no legality violation, positive finite HPWL.
func checkPlacement(d *netlist.Design, hpwl float64) error {
	if v := legal.Check(d, 0); len(v) > 0 {
		return fmt.Errorf("placement illegal: %d violations, first: %s", len(v), v[0])
	}
	if !(hpwl > 0) || math.IsInf(hpwl, 0) {
		return fmt.Errorf("hpwl %v is not positive and finite", hpwl)
	}
	return nil
}

// checkRouting applies the sanity rules to an evaluation-router report.
func checkRouting(q quality) error {
	for _, v := range []float64{q.HOF, q.VOF, q.RoutedWL} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("hof %v, vof %v, routed_wl %v must be finite and non-negative", q.HOF, q.VOF, q.RoutedWL)
		}
	}
	if !(q.RoutedWL > 0) {
		return fmt.Errorf("routed_wl %v is not positive", q.RoutedWL)
	}
	return nil
}

// checkSameQuality demands bit-equality between two runs of one design:
// the engine is deterministic for any worker count, so any difference is
// a defect, not noise.
func checkSameQuality(what string, a, b quality) error {
	if a != b {
		return fmt.Errorf("%s disagree: hpwl %v/%v routed_wl %v/%v hof %v/%v vof %v/%v",
			what, a.HPWL, b.HPWL, a.RoutedWL, b.RoutedWL, a.HOF, b.HOF, a.VOF, b.VOF)
	}
	return nil
}

// checkArtifactSet re-parses a downloaded placed.* Bookshelf set and
// checks it against the job's reported result: legal, and the same HPWL.
// Bookshelf stores pin offsets relative to the cell centre, so the
// re-parsed HPWL is compared within float rounding, not bit for bit.
func checkArtifactSet(auxPath string, wantHPWL float64) error {
	d, err := bookshelf.Parse(auxPath)
	if err != nil {
		return fmt.Errorf("re-parse artifacts: %w", err)
	}
	got := d.HPWL()
	if err := checkPlacement(d, got); err != nil {
		return fmt.Errorf("artifact %w", err)
	}
	if tol := 1e-9 * math.Abs(wantHPWL); math.Abs(got-wantHPWL) > tol {
		return fmt.Errorf("artifact hpwl %v differs from job result %v", got, wantHPWL)
	}
	return nil
}
