package density

import (
	"time"

	"puffer/internal/geom"
)

// Solver is the contract the placement engine holds the density model
// through: the multi-resolution protocol (Active/Level/Refine), the setup
// every level shares, and the counters summed across levels. Charge deposit,
// spectral solve, overflow and force readout happen on the Active grid
// directly. Two implementations exist:
//
//   - *Grid, the single-level degenerate case — always at level 0, never
//     refining;
//   - *Pyramid, a stack of power-of-two grids over the same region that
//     starts on the coarsest level and refines toward level 0 as the
//     placement's overflow drops.
//
// Both keep the Grid guarantees the engine relies on: results are
// bit-deterministic for any worker count, and the steady-state deposit →
// solve → force → overflow cycle is allocation-free in serial.
type Solver interface {
	// Active returns the grid currently receiving deposits and solves.
	Active() *Grid
	// Finest returns the level-0 grid (the final placement resolution).
	Finest() *Grid
	// Level returns the active level: 0 is finest, Levels()-1 coarsest.
	Level() int
	// Levels returns the number of resolution levels.
	Levels() int
	// Refine switches to the next finer level, reporting whether a switch
	// happened (false when already at level 0).
	Refine() bool

	// SetWorkers caps data parallelism on every level.
	SetWorkers(n int)
	// AddFixedRect deposits a fixed-cell rectangle into the baseline of
	// every level, so the fixed landscape is consistent across refinement.
	AddFixedRect(r geom.Rect, scale float64)

	// Solves, SolveSkips and RasterSkips report the executed-vs-skipped
	// spectral solve counters and the skipped rasterizations, summed across
	// levels.
	Solves() int
	SolveSkips() int
	RasterSkips() int
	// PhaseWalls returns cumulative spectral-solve wall time split by
	// phase (analysis, frequency response, synthesis), summed across
	// levels.
	PhaseWalls() (analysis, freq, synth time.Duration)
}

// Compile-time interface checks.
var (
	_ Solver = (*Grid)(nil)
	_ Solver = (*Pyramid)(nil)
)

// minPyramidDim is the smallest dimension a coarse pyramid level may have;
// requested level counts are clamped so no level goes below it.
const minPyramidDim = 8

// Pyramid is a multi-resolution stack of grids over one region.
// levels[0] is the finest (the requested M×N); each coarser level halves
// both dimensions. The active level starts at the coarsest and moves toward
// 0 via Refine. Because DepositRects fully rewrites the movable charge,
// switching levels needs no coefficient migration: the next deposit
// populates the finer grid exactly, and the fixed baseline was deposited
// into every level at setup.
type Pyramid struct {
	levels []*Grid // levels[0] finest … levels[len-1] coarsest
	active int
}

// NewPyramid creates a pyramid whose finest level is an m×n grid over
// region (both powers of two, as for NewGrid) with up to `levels`
// resolution levels; the count is clamped so the coarsest level keeps both
// dimensions ≥ 8. levels <= 1 yields a single-level pyramid equivalent to a
// bare Grid.
func NewPyramid(region geom.Rect, m, n, levels int) *Pyramid {
	if levels < 1 {
		levels = 1
	}
	for levels > 1 && (m>>(levels-1) < minPyramidDim || n>>(levels-1) < minPyramidDim) {
		levels--
	}
	p := &Pyramid{levels: make([]*Grid, levels)}
	for k := 0; k < levels; k++ {
		p.levels[k] = NewGrid(region, m>>k, n>>k)
	}
	p.active = levels - 1
	return p
}

// Active returns the grid currently receiving deposits and solves.
func (p *Pyramid) Active() *Grid { return p.levels[p.active] }

// Finest returns the level-0 grid.
func (p *Pyramid) Finest() *Grid { return p.levels[0] }

// Level returns the active level index (0 = finest).
func (p *Pyramid) Level() int { return p.active }

// Levels returns the number of resolution levels.
func (p *Pyramid) Levels() int { return len(p.levels) }

// Refine switches to the next finer level. The caller must re-deposit and
// re-solve afterwards (the finer grid's charge is whatever its last use
// left there); the placement engine does both through its λ re-anchoring.
func (p *Pyramid) Refine() bool {
	if p.active == 0 {
		return false
	}
	p.active--
	return true
}

// SetLevel jumps directly to level k (clamped), used when resuming a
// checkpointed run that recorded its active level.
func (p *Pyramid) SetLevel(k int) {
	p.active = geom.ClampInt(k, 0, len(p.levels)-1)
}

// SetWorkers caps data parallelism on every level.
func (p *Pyramid) SetWorkers(n int) {
	for _, g := range p.levels {
		g.SetWorkers(n)
	}
}

// AddFixedRect deposits a fixed rectangle into every level's baseline.
func (p *Pyramid) AddFixedRect(r geom.Rect, scale float64) {
	for _, g := range p.levels {
		g.AddFixedRect(r, scale)
	}
}

// Solves sums the executed-solve counters across levels.
func (p *Pyramid) Solves() int {
	n := 0
	for _, g := range p.levels {
		n += g.Solves()
	}
	return n
}

// SolveSkips sums the skipped-solve counters across levels.
func (p *Pyramid) SolveSkips() int {
	n := 0
	for _, g := range p.levels {
		n += g.SolveSkips()
	}
	return n
}

// RasterSkips sums the skipped-raster counters across levels.
func (p *Pyramid) RasterSkips() int {
	n := 0
	for _, g := range p.levels {
		n += g.RasterSkips()
	}
	return n
}

// PhaseWalls sums the per-phase spectral walls across levels.
func (p *Pyramid) PhaseWalls() (analysis, freq, synth time.Duration) {
	for _, g := range p.levels {
		a, f, s := g.PhaseWalls()
		analysis += a
		freq += f
		synth += s
	}
	return
}
