// Package baseline implements the two comparison placers of the paper's
// Table II on top of the same electrostatic engine:
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
	"math"

	"puffer/internal/cong"
	"puffer/internal/dp"
	"puffer/internal/geom"
	"puffer/internal/legal"
	"puffer/internal/netlist"
	"puffer/internal/place"
	"puffer/internal/router"
)

// Result summarizes a baseline run.
type Result struct {
	HPWL  float64
	GP    place.Result
	Legal legal.Result
	// OptimizerCalls counts routability-optimizer invocations.
	OptimizerCalls int
}

// RePlAceOpts tunes the RePlAce-style baseline.
type RePlAceOpts struct {
	Place place.Config
	// Tau is the density overflow below which inflation rounds trigger.
	Tau float64
	// MaxRounds bounds inflation rounds.
	MaxRounds int
	// Gain converts positive local congestion into relative inflation.
	Gain float64
	// RoundCap is the maximum relative inflation added per round.
	RoundCap float64
	// TotalCap bounds total inflation area as a fraction of movable area.
	TotalCap float64
}

// DefaultRePlAceOpts returns the baseline defaults.
func DefaultRePlAceOpts() RePlAceOpts {
	cfg := place.DefaultConfig()
	// RePlAce converges further before stopping and pays for it in
	// iterations.
	cfg.StopOverflow = 0.065
	cfg.MaxIters = 700
	// RePlAce runs its engine to deep convergence without an aggressive
	// plateau cut-off, which costs iterations on designs whose overflow
	// floor sits above the stop target.
	cfg.PlateauIters = 160
	return RePlAceOpts{
		Place:     cfg,
		Tau:       0.10,
		MaxRounds: 5,
		Gain:      1.0,
		RoundCap:  0.6,
		TotalCap:  0.15,
	}
}

// RunRePlAce places d with the RePlAce-style inflation flow.
func RunRePlAce(d *netlist.Design, opts RePlAceOpts, gridW, gridH int) (*Result, error) {
	res := &Result{}
	// Plain probabilistic estimation: no detour expansion, and only a weak
	// pin-density signal — RePlAce inflates from router-style wire-demand
	// overflow, which sees pin/escape congestion only indirectly.
	params := cong.DefaultParams()
	params.ExpandRadius = 0
	params.PinPenalty = 0.1
	est := cong.NewEstimator(d, gridW, gridH, params)

	rounds := 0
	movableArea := d.TotalMovableArea()
	hook := place.HookFunc(func(iter int, overflow float64) bool {
		if overflow >= opts.Tau || rounds >= opts.MaxRounds {
			return false
		}
		rounds++
		res.OptimizerCalls++
		m := est.Estimate()
		changed := false
		for ci := range d.Cells {
			c := &d.Cells[ci]
			if c.Fixed {
				continue
			}
			lcg := localCongestion(m, c)
			if lcg <= 0 {
				continue // truncated: slack information discarded
			}
			infl := math.Min(lcg*opts.Gain, opts.RoundCap)
			c.PadW += c.W * infl
			changed = true
		}
		// Global cap.
		if total := d.TotalPaddingArea(); total > opts.TotalCap*movableArea {
			sr := opts.TotalCap * movableArea / total
			for ci := range d.Cells {
				if !d.Cells[ci].Fixed {
					d.Cells[ci].PadW *= sr
				}
			}
		}
		return changed
	})

	placer := place.New(d, opts.Place)
	gp := placer.Run(hook)
	res.GP = *gp

	// RePlAce legalizes physical cells: the inflation is not inherited.
	lcfg := legal.DefaultConfig()
	lcfg.InheritPadding = false
	lres, err := legal.Legalize(d, lcfg)
	if err != nil {
		return nil, err
	}
	res.Legal = lres
	dcfg := dp.DefaultConfig()
	dcfg.Passes = 2
	dcfg.WindowSites = 100
	if _, err := dp.Refine(d, dcfg); err != nil {
		return nil, err
	}
	res.HPWL = d.HPWL()
	return res, nil
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

// CommercialOpts tunes the commercial-profile baseline.
type CommercialOpts struct {
	Place place.Config
	// Thresholds are the density overflows at which the router-in-the-
	// loop optimizer fires (descending).
	Thresholds []float64
	// Gain converts router overflow into padding.
	Gain float64
	// SpreadRadius is the white-space allocation radius in Gcells.
	SpreadRadius int
	// RouterCfg is the in-loop routing configuration (coarser/cheaper
	// than the final evaluation, but still the dominant cost).
	RouterCfg router.Config
}

// DefaultCommercialOpts returns the commercial-profile defaults.
func DefaultCommercialOpts() CommercialOpts {
	cfg := place.DefaultConfig()
	// The commercial profile converges deepest and slowest, with a gentler
	// density-weight ramp that favours wirelength.
	cfg.StopOverflow = 0.07
	cfg.MaxIters = 900
	cfg.LambdaMu = 1.04
	r := router.DefaultConfig()
	r.MaxRipup = 5
	return CommercialOpts{
		Place: cfg,
		// Many refinement milestones with light, router-guided padding:
		// each one restarts the engine's momentum against the new
		// padding, which is where commercial engines recover wirelength
		// while polishing congestion.
		Thresholds:   []float64{0.13, 0.11, 0.09, 0.075},
		Gain:         0.3,
		SpreadRadius: 1,
		RouterCfg:    r,
	}
}

// RunCommercial places d with the commercial-profile flow.
func RunCommercial(d *netlist.Design, opts CommercialOpts, gridW, gridH int) (*Result, error) {
	res := &Result{}
	next := 0
	hook := place.HookFunc(func(iter int, overflow float64) bool {
		if next >= len(opts.Thresholds) || overflow >= opts.Thresholds[next] {
			return false
		}
		next++
		res.OptimizerCalls++
		// Router-in-the-loop congestion oracle: accurate and expensive
		// (finer grid than the estimator-based flows use).
		rcfg := opts.RouterCfg
		rcfg.GridW, rcfg.GridH = gridW*3/2, gridH*3/2
		rr := router.Route(d, rcfg)
		m := rr.Map

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
				for dj := -opts.SpreadRadius; dj <= opts.SpreadRadius; dj++ {
					for di := -opts.SpreadRadius; di <= opts.SpreadRadius; di++ {
						ii := geom.ClampInt(i+di, 0, m.W-1)
						jj := geom.ClampInt(j+dj, 0, m.H-1)
						w := 1.0 / (1 + math.Abs(float64(di)) + math.Abs(float64(dj)))
						heat[m.Index(ii, jj)] += ov * w
					}
				}
			}
		}
		changed := false
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
			c.PadW += c.W * math.Min(h*opts.Gain, 0.5)
			changed = true
		}
		return changed
	})

	placer := place.New(d, opts.Place)
	gp := placer.Run(hook)
	res.GP = *gp

	lcfg := legal.DefaultConfig()
	lcfg.InheritPadding = true // commercial tools honour soft density screens
	lres, err := legal.Legalize(d, lcfg)
	if err != nil {
		return nil, err
	}
	res.Legal = lres
	// The commercial profile spends heavily on detailed placement — that
	// is where its wirelength edge (and part of its runtime) comes from.
	dcfg := dp.DefaultConfig()
	dcfg.Passes = 8
	dcfg.WindowSites = 200
	if _, err := dp.Refine(d, dcfg); err != nil {
		return nil, err
	}
	res.HPWL = d.HPWL()
	return res, nil
}
