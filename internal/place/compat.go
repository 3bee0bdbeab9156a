package place

import "puffer/internal/density"

// Names from the era of the multi-resolution density pyramid that the
// frozen benchmark harness (benchmark/, its own module) still compiles
// against. Delete with the harness's next revision (ROADMAP item 9).

// Solver is Grid under its old name. Reader: benchmark/trace.go.
func (p *Placer) Solver() *density.Grid { return p.g }

// Level is the active pyramid level: constant 0, as there is one grid.
// Reader: benchmark/trace.go.
func (p *Placer) Level() int { return 0 }
