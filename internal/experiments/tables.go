// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV) on the synthetic benchmark suite: Table I
// (benchmark statistics), Table II (HOF/VOF/WL/RT comparison of the
// commercial profile, RePlAce, and PUFFER), and Figures 1–5 (grid graph,
// flow trace, congestion estimation, feature extraction, congestion
// maps). It also hosts the ablation studies that exercise the paper's
// individual design claims.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"puffer/internal/baseline"
	"puffer/internal/flow"
	"puffer/internal/par"
	"puffer/internal/router"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// Options configure an experiment run.
type Options struct {
	// Scale divides the paper's Table-I design sizes (default 3000 keeps
	// the whole suite under a minute; 800 gives multi-thousand-cell runs).
	Scale int
	// Seed drives all generation and placement randomness.
	Seed int64
	// Designs filters the benchmark list by name (empty = all ten).
	Designs []string
	// PlaceIters caps global placement iterations (0 = engine default).
	PlaceIters int
	// Parallel runs the judged cells of each section (Table II, the RT
	// sweep, Fig. 5, the ablations) concurrently. Results are identical
	// (each cell is independently seeded); runtimes become noisy under
	// contention, so runtime claims should use sequential runs.
	Parallel bool
	// Ctx, when non-nil, bounds the whole experiment run: every flow
	// observes it within one iteration and a section stops scheduling new
	// cells once it is canceled. Nil means background.
	Ctx context.Context
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultOptions returns the quick-run settings.
func DefaultOptions() Options {
	return Options{Scale: 3000, Seed: 1}
}

func (o Options) profiles() ([]synth.Profile, error) {
	if len(o.Designs) == 0 {
		return synth.Profiles, nil
	}
	var out []synth.Profile
	for _, name := range o.Designs {
		p, err := synth.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// A cell is one judged run of the evaluation grid: profile placed by flow
// at scale and seed, its configuration passed through off when non-nil
// (an ablation's "off" arm).
type cell struct {
	profile synth.Profile
	flow    string
	scale   int
	seed    int64
	off     func(*pipeline.Config)
}

// flowCells is one cell per flow of baseline.Flows, in that order, for
// profile p at scale and o.Seed.
func (o Options) flowCells(p synth.Profile, scale int) []cell {
	var cells []cell
	for _, f := range baseline.Flows {
		cells = append(cells, cell{profile: p, flow: f, scale: scale, seed: o.Seed})
	}
	return cells
}

// judge places and routes every cell, concurrently under o.Parallel and
// in order otherwise, and returns each cell's record and router report in
// cell order. section prefixes the progress lines.
func (o Options) judge(section string, cells []cell) ([]*pipeline.Record, []*router.Result, error) {
	ctx := cmp.Or(o.Ctx, context.Background())
	recs := make([]*pipeline.Record, len(cells))
	routes := make([]*router.Result, len(cells))
	run := func(i int) error {
		c := cells[i]
		name := fmt.Sprintf("%s/%d seed %d %s", c.profile.Name, c.scale, c.seed, baseline.Label(c.flow))
		cfg, stages, err := baseline.Flow(c.flow, o.PlaceIters)
		if err != nil {
			return err
		}
		cfg.Place.Seed = c.seed
		if c.off != nil {
			c.off(&cfg)
		}
		rec, res, err := pipeline.Judge(ctx, c.flow, synth.Generate(c.profile, c.scale, c.seed), cfg, stages)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if o.Logf != nil {
			o.Logf("%s: %s -> HOF=%.2f%% VOF=%.2f%% WL=%.0f RT=%s",
				section, name, rec.Final.HOF, rec.Final.VOF, rec.Final.WL, rec.PlaceRuntime().Round(time.Millisecond))
		}
		recs[i], routes[i] = rec, res.Route
		return nil
	}
	var err error
	if o.Parallel {
		err = par.ForErr(ctx, len(cells), run)
	} else {
		for i := 0; i < len(cells) && err == nil; i++ {
			if err = flow.Check(ctx); err == nil {
				err = run(i)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return recs, routes, nil
}

// Table1Row is one line of Table I, carrying both the generated statistics
// and the paper's published values for reference.
type Table1Row struct {
	Name                                          string
	Macros, Cells, Nets, Pins                     int
	PaperMacros, PaperCells, PaperNets, PaperPins int
}

// Table1 generates the benchmark suite and collects its statistics.
func Table1(o Options) ([]Table1Row, error) {
	o = mergeDefaults(o)
	ps, err := o.profiles()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, p := range ps {
		d := synth.Generate(p, o.Scale, o.Seed)
		s := d.Stats()
		rows = append(rows, Table1Row{
			Name: p.Name, Macros: s.Macros, Cells: s.Cells, Nets: s.Nets, Pins: s.Pins,
			PaperMacros: p.Macros, PaperCells: p.Cells, PaperNets: p.Nets, PaperPins: p.Pins,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table I with generated and paper values side by
// side per column.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: STATISTICS OF THE BENCHMARKS (generated / paper)\n")
	fmt.Fprintf(&b, "%-16s %13s %16s %16s %16s\n", "Benchmark", "#Macros", "#Cells", "#Nets", "#Pins")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %6d/%-6d %8d/%-5dK %8d/%-5dK %8d/%-5dK\n",
			r.Name,
			r.Macros, r.PaperMacros,
			r.Cells, r.PaperCells/1000,
			r.Nets, r.PaperNets/1000,
			r.Pins, r.PaperPins/1000)
	}
	return b.String()
}

// Table2Summary aggregates the per-placer averages the paper reports.
type Table2Summary struct {
	Flow         string // as baseline.Flow spells it
	AvgHOF       float64
	AvgVOF       float64
	WLNorm       float64 // vs PUFFER = 1.000
	RTNorm       float64 // vs PUFFER = 1.000
	PassCountHOF int     // designs with HOF <= 1%
	PassCountVOF int
}

// Table2 places and judges every design of the suite with all three
// flows, one record per (design, flow) cell.
func Table2(o Options) ([]*pipeline.Record, []Table2Summary, error) {
	o = mergeDefaults(o)
	ps, err := o.profiles()
	if err != nil {
		return nil, nil, err
	}
	var cells []cell
	for _, p := range ps {
		cells = append(cells, o.flowCells(p, o.Scale)...)
	}
	rows, _, err := o.judge("table2", cells)
	if err != nil {
		return nil, nil, err
	}
	return rows, Summarize(rows), nil
}

// Summarize computes the per-placer aggregate rows of Table II from the
// judged records of its cells.
func Summarize(rows []*pipeline.Record) []Table2Summary {
	byFlow := map[string][]*pipeline.Record{}
	for _, r := range rows {
		byFlow[r.Flow] = append(byFlow[r.Flow], r)
	}
	// Geometric-mean normalization against PUFFER per design.
	pufferWL := map[string]float64{}
	pufferRT := map[string]float64{}
	for _, r := range byFlow[baseline.PUFFER] {
		pufferWL[r.Design] = r.Final.WL
		pufferRT[r.Design] = r.PlaceRuntime().Seconds()
	}
	var out []Table2Summary
	for _, f := range baseline.Flows {
		rs := byFlow[f]
		if len(rs) == 0 {
			continue
		}
		s := Table2Summary{Flow: f}
		wlSum, rtSum, n := 0.0, 0.0, 0
		for _, r := range rs {
			s.AvgHOF += r.Final.HOF
			s.AvgVOF += r.Final.VOF
			if r.Final.HOF <= 1.0 {
				s.PassCountHOF++
			}
			if r.Final.VOF <= 1.0 {
				s.PassCountVOF++
			}
			if pw := pufferWL[r.Design]; pw > 0 {
				wlSum += r.Final.WL / pw
				rtSum += r.PlaceRuntime().Seconds() / pufferRT[r.Design]
				n++
			}
		}
		s.AvgHOF /= float64(len(rs))
		s.AvgVOF /= float64(len(rs))
		if n > 0 {
			s.WLNorm = wlSum / float64(n)
			s.RTNorm = rtSum / float64(n)
		}
		out = append(out, s)
	}
	return out
}

// FormatTable2 renders the comparison table.
func FormatTable2(rows []*pipeline.Record, sums []Table2Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II: COMPARISON OF HOF, VOF, WL, AND RT\n")
	var designs []string
	byKey := map[string]*pipeline.Record{}
	for _, r := range rows {
		if !slices.Contains(designs, r.Design) {
			designs = append(designs, r.Design)
		}
		byKey[r.Design+"/"+r.Flow] = r
	}
	fmt.Fprintf(&b, "%-16s", "Benchmark")
	for _, f := range baseline.Flows {
		fmt.Fprintf(&b, " | %-37s", baseline.Label(f))
	}
	fmt.Fprintf(&b, "\n%-16s", "")
	for range 3 {
		fmt.Fprintf(&b, " | %7s %7s %10s %8s", "HOF(%)", "VOF(%)", "WL", "RT(s)")
	}
	fmt.Fprintf(&b, "\n")
	for _, dn := range designs {
		fmt.Fprintf(&b, "%-16s", dn)
		for _, f := range baseline.Flows {
			r := byKey[dn+"/"+f]
			fmt.Fprintf(&b, " | %7.2f %7.2f %10.0f %8.2f", r.Final.HOF, r.Final.VOF, r.Final.WL, r.PlaceRuntime().Seconds())
		}
		fmt.Fprintf(&b, "\n")
	}
	// Summarize lists the flows in baseline.Flows order.
	fmt.Fprintf(&b, "%-16s", "Average")
	for _, s := range sums {
		fmt.Fprintf(&b, " | %7.3f %7.3f %10.3f %8.3f", s.AvgHOF, s.AvgVOF, s.WLNorm, s.RTNorm)
	}
	fmt.Fprintf(&b, "\n%-16s", "Pass Count")
	for _, s := range sums {
		fmt.Fprintf(&b, " | %7d %7d %10s %8s", s.PassCountHOF, s.PassCountVOF, "-", "-")
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

func mergeDefaults(o Options) Options {
	def := DefaultOptions()
	o.Scale = cmp.Or(o.Scale, def.Scale)
	o.Seed = cmp.Or(o.Seed, def.Seed)
	return o
}

// SortRows orders rows by design, then by flow in baseline.Flows order,
// for stable output.
func SortRows(rows []*pipeline.Record) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Design != rows[j].Design {
			return rows[i].Design < rows[j].Design
		}
		return slices.Index(baseline.Flows, rows[i].Flow) < slices.Index(baseline.Flows, rows[j].Flow)
	})
}
