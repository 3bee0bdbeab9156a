package cong

// Names from the era of the incremental demand journal that the frozen
// benchmark harness (benchmark/, its own module) still compiles against.
// Delete with the harness's next revision (ROADMAP item 9).

// ForceRebuild is a no-op: every Estimate is from scratch. Reader:
// benchmark/kernels.go.
func (e *Estimator) ForceRebuild() {}

// HitRate is the fraction of nets served from the journal: constant 0, as
// there is none. Reader: benchmark/trace.go.
func (s Stats) HitRate() float64 { return 0 }
