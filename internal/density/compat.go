package density

// Finest is a name from the era of the multi-resolution pyramid that the
// frozen benchmark harness (benchmark/, its own module) still compiles
// against. Delete with the harness's next revision (ROADMAP item 6).
//
// It returns the grid itself: there is one resolution. Reader:
// benchmark/trace.go.
func (g *Grid) Finest() *Grid { return g }
