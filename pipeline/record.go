package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"puffer/internal/netlist"
	"puffer/internal/obs"
)

// RecordSchema identifies the run-record JSON document version. LoadRecord
// rejects documents with a different schema string instead of guessing.
const RecordSchema = "puffer/run-report/v2"

// PUFFER is the flow name of the Default stage list.
const PUFFER = "puffer"

// EngineVersion names the placement engine revision. Every Record carries
// it, so a report says which engine produced it. Bump it with any change
// that can alter placement results; changes that only affect speed or
// observability keep it.
const EngineVersion = "puffer-engine/v13"

// Record is the one outcome of a run: the flow and design, the
// configuration the flow read, per-stage statistics, the stage log, every
// metric recorded and the final quality numbers. puffer -report, a job's
// report.json and JobResult, puffer diag, every experiments cell and each
// exploration trial read one.
type Record struct {
	Schema string `json:"schema"`
	// Engine is the EngineVersion that produced the run.
	Engine string `json:"engine"`
	// Flow names the flow that ran, as baseline.Flow spells it.
	Flow   string `json:"flow"`
	Design string `json:"design"`
	Cells  int    `json:"cells"`
	Nets   int    `json:"nets"`
	Seed   int64  `json:"seed"`
	// Config is the flow configuration as JSON. Its Strategy is whole for
	// the PUFFER flow; the comparators read only its Theta, so their
	// records hold that field alone.
	Config json.RawMessage `json:"config"`
	// Stages holds the per-stage statistics, estimator snapshots included.
	Stages []StageStats `json:"stages"`
	// StageLog is the verbatim Fig. 2 flow trace.
	StageLog []string `json:"stage_log,omitempty"`
	// Metrics is the full registry snapshot, per-iteration series included.
	Metrics obs.Snapshot `json:"metrics"`
	Final   Final        `json:"final"`
}

// Final holds a run's end-of-run quality numbers. The GP counters describe
// the attempt that ran global placement; a run resumed past it reports
// zero for them.
type Final struct {
	HPWL        float64 `json:"hpwl"`
	GPOverflow  float64 `json:"gp_overflow"`
	GPIters     int     `json:"gp_iters"`
	PaddingArea float64 `json:"padding_area"`
	PaddingRuns int     `json:"padding_runs"`
	// RuntimeMS is the run's wall time, its Route stage included.
	RuntimeMS float64 `json:"runtime_ms"`
	// Routed is the Route stage's verdict, nil when the run was not judged.
	*Routed
}

// Routed is the evaluation router's verdict on a placement: Table II's
// HOF, VOF and WL.
type Routed struct {
	HOF      float64 `json:"hof"`
	VOF      float64 `json:"vof"`
	WL       float64 `json:"routed_wl"`
	Segments int     `json:"routed_segments"`
	Rerouted int     `json:"rerouted"`
}

// NewRecord builds the record of the named flow's finished (or canceled)
// run on rc.
func NewRecord(flow string, rc *RunContext) (*Record, error) {
	var cfg any = rc.Cfg
	if flow != PUFFER {
		type theta struct{ Theta float64 }
		cfg = struct {
			Config
			Strategy theta
		}{rc.Cfg, theta{rc.Cfg.Strategy.Theta}}
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: encode config for record: %w", err)
	}
	res := rc.Result
	rec := &Record{
		Schema:   RecordSchema,
		Engine:   EngineVersion,
		Flow:     flow,
		Design:   rc.Design.Name,
		Cells:    len(rc.Design.Cells),
		Nets:     len(rc.Design.Nets),
		Seed:     rc.Cfg.Place.Seed,
		Config:   cfgJSON,
		Stages:   append([]StageStats(nil), res.Stages...),
		StageLog: append([]string(nil), res.StageLog...),
		Metrics:  rc.Cfg.Obs.Registry().Snapshot(),
		Final: Final{
			HPWL:        res.HPWL,
			GPOverflow:  res.GP.Overflow,
			GPIters:     res.GP.Iters,
			PaddingArea: res.PaddingArea,
			PaddingRuns: len(res.PaddingRuns),
			RuntimeMS:   float64(res.Runtime) / float64(time.Millisecond),
		},
	}
	if rr := res.Route; rr != nil {
		rec.Final.Routed = &Routed{HOF: rr.HOF, VOF: rr.VOF, WL: rr.WL, Segments: rr.Segments, Rerouted: rr.Rerouted}
	}
	return rec, nil
}

// Judge places d with the named flow's configuration and stages, judges
// the placement with the Route stage, and returns the run's record and
// Result.
func Judge(ctx context.Context, flow string, d *netlist.Design, cfg Config, stages []Stage) (*Record, *Result, error) {
	rc, err := NewRunContext(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := New(append(stages, Route())...).Run(ctx, rc); err != nil {
		return nil, rc.Result, err
	}
	rec, err := NewRecord(flow, rc)
	return rec, rc.Result, err
}

// PlaceRuntime is the run's wall time without its Route stage: Table II's
// RT and the CLI's placement runtime time placement alone.
func (r *Record) PlaceRuntime() time.Duration {
	rt := time.Duration(r.Final.RuntimeMS * float64(time.Millisecond))
	for _, st := range r.Stages {
		if st.Name == StageRoute {
			rt -= st.Wall
		}
	}
	return rt
}

// Save writes the record as indented JSON.
func (r *Record) Save(path string) error {
	r.Schema = RecordSchema
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("pipeline: encode run record: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRecord reads a record written by Save, validating its schema.
func LoadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Record{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("pipeline: decode run record %s: %w", path, err)
	}
	if r.Schema != RecordSchema {
		return nil, fmt.Errorf("pipeline: %s: schema %q, want %q", path, r.Schema, RecordSchema)
	}
	return r, nil
}

// WriteStageStats prints the per-stage pipeline statistics in the fixed
// `cmd/puffer` stage-table format, including the congestion engine's counters
// for stages that ran the estimator; a stage without an estimator snapshot
// (the optimizer never triggered) prints only its stage line.
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
