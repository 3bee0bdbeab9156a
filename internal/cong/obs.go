package cong

import "puffer/internal/obs"

// SetObs attaches telemetry to the estimator: a span per estimate (with
// shard children during the parallel build) on the recorder's tracer. A
// nil recorder — the default — disables it at nil-check cost.
func (e *Estimator) SetObs(rec *obs.Recorder) { e.rec = rec }
