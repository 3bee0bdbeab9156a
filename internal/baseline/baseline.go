// Package baseline builds the three flows of the paper's Table II as
// pipeline stage lists over one GP engine, legalizer and detailed placer.
// Flow is the one switch from a flow name to its configuration and stages.
// Each comparator keeps only what is its own: a global-placement round
// plugged into pipeline.GlobalPlaceWith, and a configuration overlay on the
// stock legalization and detailed-placement stages.
//
//   - RePlAce: the academic routability-driven placer [5], modeled by its
//     published mechanism — truncated local cell inflation from a plain
//     probabilistic congestion estimate, no multi-feature padding, no
//     recycling, no detour expansion, and legalization that does not
//     inherit the inflation (the exact deltas PUFFER claims credit over).
//
//   - Commercial: a stand-in for the commercial tool profile — a
//     router-in-the-loop congestion oracle (expensive but accurate),
//     white-space allocation around hotspots, and a finer convergence
//     target. It is tuned to the profile Table II reports: best
//     wirelength, competitive overflow, longest runtime.
package baseline

import (
	"context"
	"fmt"
	"math"

	"puffer/internal/cong"
	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/padding"
	"puffer/internal/router"
	"puffer/pipeline"
)

// Flow names, as `puffer -placer` spells them.
const (
	PUFFER     = pipeline.PUFFER
	RePlAce    = "replace"
	Commercial = "commercial"
)

// Flow returns the configuration and stage list of the named flow. A
// positive maxIters caps global placement at that many iterations for
// every flow alike; 0 keeps the flow's own cap. A flow's finish,
// (Strategy.Theta, DP.PreservePadding), is stated here and nowhere else.
func Flow(name string, maxIters int) (pipeline.Config, []pipeline.Stage, error) {
	cfg := pipeline.DefaultConfig()
	var stages []pipeline.Stage
	switch name {
	case PUFFER:
		stages = pipeline.Default()
	case RePlAce:
		// RePlAce converges further before stopping and pays for it in
		// iterations, without an aggressive plateau cut-off, which costs
		// iterations on designs whose overflow floor sits above the stop
		// target.
		cfg.Place.StopOverflow = 0.065
		cfg.Place.MaxIters = 700
		cfg.Place.PlateauIters = 160
		// RePlAce legalizes physical cells: θ = 0 inherits none of the
		// inflation, and DP does not keep white space.
		cfg.Strategy.Theta = 0
		cfg.DP.PreservePadding = false
		stages = comparator(replaceRound(replaceInflation))
	case Commercial:
		// The commercial profile converges deepest and slowest, with a
		// gentler density-weight ramp that favours wirelength.
		cfg.Place.StopOverflow = 0.07
		cfg.Place.MaxIters = 900
		cfg.Place.LambdaMu = 1.04
		// Commercial tools honour soft density screens at the legalizer's
		// stock staircase resolution, and DP does not keep white space.
		cfg.Strategy.Theta = 4
		cfg.DP.PreservePadding = false
		// It spends heavily on detailed placement — that is where its
		// wirelength edge (and part of its runtime) comes from.
		cfg.DP.Passes = 8
		cfg.DP.WindowSites = 200
		stages = comparator(commercialRound)
	default:
		return cfg, nil, fmt.Errorf("unknown placer %q", name)
	}
	if maxIters > 0 {
		cfg.Place.MaxIters = maxIters
	}
	return cfg, stages, nil
}

// comparator is a comparator's stage list: its own GP round, then the
// stock legalization and detailed placement.
func comparator(round func(rc *pipeline.RunContext) pipeline.Round) []pipeline.Stage {
	return []pipeline.Stage{pipeline.GlobalPlaceWith(round), pipeline.Legalize(), pipeline.DetailedPlace()}
}

// inflation holds RePlAce's inflation constants; tests reach other values
// through replaceRound.
type inflation struct {
	// tau is the density overflow below which inflation rounds trigger.
	tau float64
	// maxRounds bounds inflation rounds.
	maxRounds int
	// gain converts positive local congestion into relative inflation.
	gain float64
	// roundCap is the maximum relative inflation added per round.
	roundCap float64
	// totalCap bounds total inflation area as a fraction of movable area.
	totalCap float64
}

var replaceInflation = inflation{tau: 0.10, maxRounds: 5, gain: 1.0, roundCap: 0.6, totalCap: 0.15}

// replaceRound is RePlAce's GP round under the constants p: truncated
// local inflation from a plain probabilistic estimate.
func replaceRound(p inflation) func(rc *pipeline.RunContext) pipeline.Round {
	return func(rc *pipeline.RunContext) pipeline.Round {
		d := rc.Design
		// Plain probabilistic estimation: no detour expansion, and only a
		// weak pin-density signal — RePlAce inflates from router-style
		// wire-demand overflow, which sees pin/escape congestion only
		// indirectly.
		params := cong.DefaultParams()
		params.ExpandRadius = 0
		params.PinPenalty = 0.1
		params.Workers = rc.Cfg.Workers
		est := cong.NewEstimator(d, rc.GridW, rc.GridH, params)
		est.SetObs(rc.Cfg.Obs)
		movableArea := d.TotalMovableArea()
		rounds := 0
		return func(ctx context.Context, iter int, overflow float64) (*padding.RunInfo, bool, error) {
			if overflow >= p.tau || rounds >= p.maxRounds {
				return nil, false, nil
			}
			m, err := est.EstimateCtx(ctx)
			if err != nil {
				return nil, false, err
			}
			rounds++
			info := &padding.RunInfo{Iter: rounds}
			for ci := range d.Cells {
				c := &d.Cells[ci]
				if c.Fixed {
					continue
				}
				lcg := localCongestion(m, c)
				if lcg <= 0 {
					continue // truncated: slack information discarded
				}
				infl := math.Min(lcg*p.gain, p.roundCap)
				c.PadW += c.W * infl
				info.PaddedCells++
			}
			// Global cap.
			if total := d.TotalPaddingArea(); total > p.totalCap*movableArea {
				sr := p.totalCap * movableArea / total
				for ci := range d.Cells {
					if !d.Cells[ci].Fixed {
						d.Cells[ci].PadW *= sr
					}
				}
				info.Scaled = true
			}
			info.TotalArea = d.TotalPaddingArea()
			return info, info.PaddedCells > 0, nil
		}
	}
}

// localCongestion is the truncated max-over-footprint congestion used by
// inflation-style optimizers.
func localCongestion(m *cong.Map, c *netlist.Cell) float64 {
	r := c.Rect().Intersect(m.Region)
	if r.Empty() {
		return 0
	}
	i0, j0 := m.GcellOf(r.Lo)
	hi := r.Hi
	hi.X -= 1e-9
	hi.Y -= 1e-9
	i1, j1 := m.GcellOf(hi)
	best := math.Inf(-1)
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			if v := m.Cg(m.Index(i, j)); v > best {
				best = v
			}
		}
	}
	return best
}

// Commercial's router-guided padding constants.
const (
	// Padding converts router overflow into relative padding, capped per
	// cell and round.
	commercialGain = 0.3
	commercialCap  = 0.5
	// commercialSpread is the white-space allocation radius in Gcells.
	commercialSpread = 1
	// commercialRipup is the in-loop router's rip-up budget: coarser and
	// cheaper than the final evaluation, but still the dominant cost.
	commercialRipup = 5
)

// commercialThresholds are the density overflows at which the router-in-
// the-loop optimizer fires (descending). Many refinement milestones with
// light, router-guided padding: each one restarts the engine's momentum
// against the new padding, which is where commercial engines recover
// wirelength while polishing congestion.
var commercialThresholds = []float64{0.13, 0.11, 0.09, 0.075}

// commercialRound is the commercial profile's GP round: route the current
// placement and spread padding around the overflowing Gcells.
func commercialRound(rc *pipeline.RunContext) pipeline.Round {
	d := rc.Design
	next := 0
	return func(ctx context.Context, iter int, overflow float64) (*padding.RunInfo, bool, error) {
		if next >= len(commercialThresholds) || overflow >= commercialThresholds[next] {
			return nil, false, nil
		}
		// Router-in-the-loop congestion oracle: accurate and expensive
		// (finer grid than the estimator-based flows use).
		rcfg := router.DefaultConfig()
		rcfg.MaxRipup = commercialRipup
		rcfg.GridW, rcfg.GridH = rc.GridW*3/2, rc.GridH*3/2
		rcfg.Workers = rc.Cfg.Workers
		rcfg.Obs = rc.Cfg.Obs
		rr, err := router.RouteCtx(ctx, d, rcfg)
		if err != nil {
			return nil, false, err
		}
		next++
		m := rr.Map
		info := &padding.RunInfo{Iter: next, EstHOF: rr.HOF, EstVOF: rr.VOF}

		// White-space allocation: spread padding over a neighbourhood of
		// each congested Gcell rather than only the cells inside it.
		heat := make([]float64, m.W*m.H)
		for j := 0; j < m.H; j++ {
			for i := 0; i < m.W; i++ {
				idx := m.Index(i, j)
				ov := m.OverflowH(idx)/math.Max(m.CapH[idx], 1) +
					m.OverflowV(idx)/math.Max(m.CapV[idx], 1)
				if ov <= 0 {
					continue
				}
				for dj := -commercialSpread; dj <= commercialSpread; dj++ {
					for di := -commercialSpread; di <= commercialSpread; di++ {
						ii := geom.ClampInt(i+di, 0, m.W-1)
						jj := geom.ClampInt(j+dj, 0, m.H-1)
						w := 1.0 / (1 + math.Abs(float64(di)) + math.Abs(float64(dj)))
						heat[m.Index(ii, jj)] += ov * w
					}
				}
			}
		}
		for ci := range d.Cells {
			c := &d.Cells[ci]
			if c.Fixed {
				continue
			}
			gi, gj := m.GcellOf(c.Center())
			h := heat[m.Index(gi, gj)]
			if h <= 0 {
				continue
			}
			c.PadW += c.W * math.Min(h*commercialGain, commercialCap)
			info.PaddedCells++
		}
		info.TotalArea = d.TotalPaddingArea()
		return info, info.PaddedCells > 0, nil
	}
}
