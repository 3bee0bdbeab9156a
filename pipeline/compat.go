package pipeline

import "puffer/internal/place"

// Names from the era of the multi-resolution density pyramid and of engine
// state carried from one run to the next, which the frozen benchmark
// harness (benchmark/, its own module) still compiles against. Delete with
// the harness's next revision (ROADMAP item 9).

// SetGridLevel is a no-op: there is one grid, so no level to record.
// Reader: benchmark/trace.go.
func (rc *RunContext) SetGridLevel(int) {}

// SetEngineReuse is a no-op: every placement builds its engine afresh, so
// there is no state to record. Reader: benchmark/trace.go.
func (rc *RunContext) SetEngineReuse(*place.Reuse) {}
