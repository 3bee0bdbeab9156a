package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReportSchema identifies the run-report JSON document version. Loaders
// reject documents with a different schema string instead of guessing.
const ReportSchema = "puffer/run-report/v1"

// RunReport is the structured artifact of one flow run: enough to replay
// the analysis offline (configuration, seeds, per-stage statistics, every
// per-iteration metric series, final quality numbers) without rerunning
// placement. cmd/puffer -report writes it; puffer diag consumes it.
type RunReport struct {
	Schema string `json:"schema"`
	Design string `json:"design"`
	Cells  int    `json:"cells"`
	Nets   int    `json:"nets"`
	Seed   int64  `json:"seed"`
	// Config is the flow configuration as JSON (function-valued and
	// telemetry fields excluded via their json tags).
	Config json.RawMessage `json:"config,omitempty"`
	// Stages mirrors the pipeline's per-stage statistics.
	Stages []StageReport `json:"stages"`
	// StageLog is the verbatim Fig. 2 flow trace.
	StageLog []string `json:"stage_log,omitempty"`
	// Metrics is the full registry snapshot: counters, gauges, and every
	// per-iteration series recorded during the run.
	Metrics Snapshot `json:"metrics"`
	// Final holds the end-of-run quality numbers (hpwl, overflow,
	// padding_area, runtime_ms, and hof/vof/wl when routing ran).
	Final map[string]float64 `json:"final,omitempty"`
}

// StageReport is the serialized form of one stage's statistics.
type StageReport struct {
	Name        string `json:"name"`
	WallNs      int64  `json:"wall_ns"`
	Iters       int    `json:"iters"`
	AllocsDelta uint64 `json:"allocs_delta"`
	// Estimator carries the congestion engine's stats snapshot when the
	// stage ran the estimator; generic so this package stays leaf.
	Estimator any `json:"estimator,omitempty"`
}

// Save writes the report as indented JSON.
func (r *RunReport) Save(path string) error {
	r.Schema = ReportSchema
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode run report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by Save, validating its schema.
func LoadReport(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &RunReport{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("obs: decode run report %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, r.Schema, ReportSchema)
	}
	return r, nil
}
