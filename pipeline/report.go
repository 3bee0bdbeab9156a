package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"puffer/internal/obs"
)

// BuildReport assembles the structured run-report artifact for a finished
// (or canceled) run: the configuration as JSON, per-stage statistics, the
// verbatim stage log, a snapshot of every metric the flow recorded, and
// the final quality numbers. cmd/puffer -report saves it; puffer diag
// consumes it.
//
// The configuration's Strategy is whole only when the run built PUFFER's
// routability optimizer; otherwise it holds the one field the flow read,
// Theta.
func BuildReport(rc *RunContext) (*obs.RunReport, error) {
	var cfg any = rc.Cfg
	if rc.opt == nil {
		type theta struct{ Theta float64 }
		cfg = struct {
			Config
			Strategy theta
		}{rc.Cfg, theta{rc.Cfg.Strategy.Theta}}
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: encode config for report: %w", err)
	}
	res := rc.Result
	rep := &obs.RunReport{
		Schema:   obs.ReportSchema,
		Design:   rc.Design.Name,
		Cells:    len(rc.Design.Cells),
		Nets:     len(rc.Design.Nets),
		Seed:     rc.Cfg.Place.Seed,
		Config:   cfgJSON,
		StageLog: append([]string(nil), res.StageLog...),
		Metrics:  rc.Cfg.Obs.Registry().Snapshot(),
		Final: map[string]float64{
			"hpwl":         res.HPWL,
			"gp_overflow":  res.GP.Overflow,
			"gp_iters":     float64(res.GP.Iters),
			"padding_area": res.PaddingArea,
			"padding_runs": float64(len(res.PaddingRuns)),
			"runtime_ms":   float64(res.Runtime) / float64(time.Millisecond),
		},
	}
	for _, st := range res.Stages {
		sr := obs.StageReport{
			Name:        st.Name,
			WallNs:      int64(st.Wall),
			Iters:       st.Iters,
			AllocsDelta: st.AllocsDelta,
		}
		if st.Estimator != nil {
			sr.Estimator = st.Estimator
		}
		rep.Stages = append(rep.Stages, sr)
	}
	if rr := res.Route; rr != nil {
		rep.Final["hof"] = rr.HOF
		rep.Final["vof"] = rr.VOF
		rep.Final["routed_wl"] = rr.WL
		rep.Final["routed_segments"] = float64(rr.Segments)
		rep.Final["rerouted"] = float64(rr.Rerouted)
	}
	return rep, nil
}

// WriteStageStats prints the per-stage pipeline statistics in the fixed
// `cmd/puffer -stats` format, including the congestion engine's counters
// for stages that ran the estimator. Stages without an estimator snapshot
// (Estimator == nil — e.g. the optimizer never triggered, or the stats
// came from a decoded report) print only their stage line.
func WriteStageStats(w io.Writer, stages []StageStats) {
	for _, st := range stages {
		fmt.Fprintf(w, "stage %-10s %10s  iters=%-8d allocs=%d\n",
			st.Name, st.Wall.Round(time.Microsecond), st.Iters, st.AllocsDelta)
		if es := st.Estimator; es != nil {
			fmt.Fprintf(w, "  estimator: calls=%d nets=%d pins=%d (topo=%s merge=%s expand=%s)\n",
				es.Calls, es.LastNets, es.LastPins,
				es.LastTopoWall.Round(time.Microsecond), es.LastMergeWall.Round(time.Microsecond),
				es.LastExpandWall.Round(time.Microsecond))
		}
	}
}
