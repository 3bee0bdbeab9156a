package pipeline

// SetGridLevel is a name from the era of the multi-resolution density
// pyramid that the frozen benchmark harness (benchmark/, its own module)
// still compiles against. Delete with the harness's next revision (ROADMAP
// item 6).
//
// It is a no-op: there is one grid, so no level to record. Reader:
// benchmark/trace.go.
func (rc *RunContext) SetGridLevel(int) {}
