package place

import "puffer/internal/density"

// Names from the era of the multi-resolution density pyramid and of engine
// state carried from one run to the next, which the frozen benchmark harness
// (benchmark/, its own module) still compiles against. Delete with the
// harness's next revision (ROADMAP item 9).

// Solver is Grid under its old name. Reader: benchmark/trace.go.
func (p *Placer) Solver() *density.Grid { return p.g }

// Level is the active pyramid level: constant 0, as there is one grid.
// Reader: benchmark/trace.go.
func (p *Placer) Level() int { return 0 }

// Reuse is inert: NewChecked builds every engine afresh, so no state is
// carried from one run to the next. Reader: benchmark/trace.go.
type Reuse struct{}

// ReuseState returns nil: there is no engine state to carry. Reader:
// benchmark/trace.go.
func (p *Placer) ReuseState() *Reuse { return nil }
