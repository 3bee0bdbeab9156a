package experiments

import (
	"fmt"
	"strings"
	"time"

	"puffer/internal/baseline"
	"puffer/internal/synth"
)

// RTSweepRow reports per-flow runtime at one design scale.
type RTSweepRow struct {
	Scale int
	Cells int
	RT    map[string]time.Duration // by flow, as baseline.Flow spells it
}

// RTSweep measures the runtime of the three flows on one design profile
// across scales, substantiating the Table-II claim that the runtime ratios
// grow with design size: the commercial profile's router-in-the-loop and
// deep refinement scale super-linearly with the netlist, while PUFFER's
// estimator-based optimizer stays cheap.
func RTSweep(design string, scales []int, o Options) ([]RTSweepRow, error) {
	o = mergeDefaults(o)
	p, err := synth.ProfileByName(design)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, scale := range scales {
		cells = append(cells, o.flowCells(p, scale)...)
	}
	recs, _, err := o.judge("rtsweep", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]RTSweepRow, len(scales))
	for i, scale := range scales {
		rows[i] = RTSweepRow{Scale: scale, Cells: synth.Generate(p, scale, o.Seed).Stats().Cells, RT: map[string]time.Duration{}}
	}
	for i, rec := range recs {
		rows[i/len(baseline.Flows)].RT[rec.Flow] = rec.PlaceRuntime() // like Table II
	}
	return rows, nil
}

// FormatRTSweep renders the sweep with ratios normalized to PUFFER.
func FormatRTSweep(design string, rows []RTSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "RUNTIME SCALING on %s (ratios vs PUFFER)\n", design)
	fmt.Fprintf(&b, "%8s %8s %12s %12s %12s %8s %8s\n", "scale", "cells", baseline.Label(baseline.Commercial),
		baseline.Label(baseline.RePlAce), baseline.Label(baseline.PUFFER), "C/P", "R/P")
	for _, r := range rows {
		c, rp, p := r.RT[baseline.Commercial], r.RT[baseline.RePlAce], r.RT[baseline.PUFFER]
		cpr, rpr := 0.0, 0.0
		if p > 0 {
			cpr, rpr = c.Seconds()/p.Seconds(), rp.Seconds()/p.Seconds()
		}
		fmt.Fprintf(&b, "%8d %8d %12s %12s %12s %8.2f %8.2f\n", r.Scale, r.Cells,
			c.Round(time.Millisecond), rp.Round(time.Millisecond), p.Round(time.Millisecond), cpr, rpr)
	}
	return b.String()
}
