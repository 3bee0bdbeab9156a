package cong

import "puffer/internal/obs"

// SetObs attaches telemetry to the estimator: a span per estimate (with
// shard children during the parallel build) on the recorder's tracer, and
// the call counter on its registry. A nil recorder — the default —
// disables everything at nil-check cost.
func (e *Estimator) SetObs(rec *obs.Recorder) {
	e.rec = rec
	e.cEstimates = rec.Counter("cong.estimates")
}
