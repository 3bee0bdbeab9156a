package experiments

import (
	"fmt"
	"strings"
	"time"

	"puffer/internal/synth"
)

// RTSweepRow reports per-placer runtime at one design scale.
type RTSweepRow struct {
	Scale int
	Cells int
	RT    map[PlacerName]time.Duration
}

// RTSweep measures the runtime of the three placers on one design profile
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
	var rows []RTSweepRow
	for _, scale := range scales {
		row := RTSweepRow{Scale: scale, RT: map[PlacerName]time.Duration{}}
		for _, placer := range []PlacerName{Commercial, RePlAce, PUFFER} {
			d := synth.Generate(p, scale, o.Seed)
			row.Cells = d.Stats().Cells
			oo := o
			oo.Scale = scale
			rec, _, err := runOne(d, placer, oo, nil)
			if err != nil {
				return nil, fmt.Errorf("scale %d / %s: %w", scale, placer, err)
			}
			row.RT[placer] = rec.PlaceRuntime() // like Table II
			o.log("rtsweep: scale=%d cells=%d %s RT=%s", scale, row.Cells, placer,
				row.RT[placer].Round(time.Millisecond))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRTSweep renders the sweep with ratios normalized to PUFFER.
func FormatRTSweep(design string, rows []RTSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "RUNTIME SCALING on %s (ratios vs PUFFER)\n", design)
	fmt.Fprintf(&b, "%8s %8s %12s %12s %12s %8s %8s\n",
		"scale", "cells", "Commercial", "RePlAce", "PUFFER", "C/P", "R/P")
	for _, r := range rows {
		pt := r.RT[PUFFER].Seconds()
		cp, rp := 0.0, 0.0
		if pt > 0 {
			cp = r.RT[Commercial].Seconds() / pt
			rp = r.RT[RePlAce].Seconds() / pt
		}
		fmt.Fprintf(&b, "%8d %8d %12s %12s %12s %8.2f %8.2f\n",
			r.Scale, r.Cells,
			r.RT[Commercial].Round(time.Millisecond),
			r.RT[RePlAce].Round(time.Millisecond),
			r.RT[PUFFER].Round(time.Millisecond),
			cp, rp)
	}
	return b.String()
}
