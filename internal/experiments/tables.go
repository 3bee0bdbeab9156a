// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV) on the synthetic benchmark suite: Table I
// (benchmark statistics), Table II (HOF/VOF/WL/RT comparison of the
// commercial profile, RePlAce, and PUFFER), and Figures 1–5 (grid graph,
// flow trace, congestion estimation, feature extraction, congestion
// maps). It also hosts the ablation studies that exercise the paper's
// individual design claims.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"puffer/internal/baseline"
	"puffer/internal/flow"
	"puffer/internal/netlist"
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
	// Parallel runs the (design, placer) grid of Table II concurrently.
	// Results are identical (each run is independently seeded); the RT
	// column becomes noisy under contention, so runtime claims should use
	// sequential runs.
	Parallel bool
	// Ctx, when non-nil, bounds the whole experiment run: every flow
	// observes it within one iteration and the Table-II grid stops
	// scheduling new cells once it is canceled. Nil means background.
	Ctx context.Context
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultOptions returns the quick-run settings.
func DefaultOptions() Options {
	return Options{Scale: 3000, Seed: 1}
}

func (o Options) log(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) profiles() []synth.Profile {
	if len(o.Designs) == 0 {
		return synth.Profiles
	}
	var out []synth.Profile
	for _, name := range o.Designs {
		if p, err := synth.ProfileByName(name); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// Table1Row is one line of Table I, carrying both the generated statistics
// and the paper's published values for reference.
type Table1Row struct {
	Name                                          string
	Macros, Cells, Nets, Pins                     int
	PaperMacros, PaperCells, PaperNets, PaperPins int
}

// Table1 generates the benchmark suite and collects its statistics.
func Table1(o Options) []Table1Row {
	if o.Scale == 0 {
		o = mergeDefaults(o)
	}
	var rows []Table1Row
	for _, p := range o.profiles() {
		d := synth.Generate(p, o.Scale, o.Seed)
		s := d.Stats()
		rows = append(rows, Table1Row{
			Name: p.Name, Macros: s.Macros, Cells: s.Cells, Nets: s.Nets, Pins: s.Pins,
			PaperMacros: p.Macros, PaperCells: p.Cells, PaperNets: p.Nets, PaperPins: p.Pins,
		})
	}
	return rows
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

// PlacerName identifies the three compared flows.
type PlacerName string

// The three placers of Table II.
const (
	Commercial PlacerName = "Commercial_Inn"
	RePlAce    PlacerName = "RePlAce"
	PUFFER     PlacerName = "PUFFER"
)

// Table2Summary aggregates the per-placer averages the paper reports.
type Table2Summary struct {
	Placer       PlacerName
	AvgHOF       float64
	AvgVOF       float64
	WLNorm       float64 // vs PUFFER = 1.000
	RTNorm       float64 // vs PUFFER = 1.000
	PassCountHOF int     // designs with HOF <= 1%
	PassCountVOF int
}

// Flow returns the placer's baseline.Flow name.
func (p PlacerName) Flow() string {
	return map[PlacerName]string{
		Commercial: baseline.Commercial,
		RePlAce:    baseline.RePlAce,
		PUFFER:     baseline.PUFFER,
	}[p]
}

// runOne places design d with the named placer, its configuration passed
// through mutate when non-nil, judges it with the Route stage, and returns
// the run's record with the router's report (Fig. 5 draws its map).
func runOne(d *netlist.Design, placer PlacerName, o Options, mutate func(*pipeline.Config)) (*pipeline.Record, *router.Result, error) {
	cfg, stages, err := baseline.Flow(placer.Flow(), o.PlaceIters)
	if err != nil {
		return nil, nil, err
	}
	cfg.Place.Seed = o.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	rec, res, err := pipeline.Judge(o.ctx(), placer.Flow(), d, cfg, stages)
	if err != nil {
		return nil, nil, err
	}
	return rec, res.Route, nil
}

// Table2 runs all three placers over the benchmark suite, one record per
// (design, placer) cell.
func Table2(o Options) ([]*pipeline.Record, []Table2Summary, error) {
	o = mergeDefaults(o)
	type task struct {
		profile synth.Profile
		placer  PlacerName
	}
	var tasks []task
	for _, p := range o.profiles() {
		for _, placer := range []PlacerName{Commercial, RePlAce, PUFFER} {
			tasks = append(tasks, task{p, placer})
		}
	}
	rows := make([]*pipeline.Record, len(tasks))
	run := func(i int) error {
		t := tasks[i]
		d := synth.Generate(t.profile, o.Scale, o.Seed)
		o.log("table2: %s / %s ...", t.profile.Name, t.placer)
		rec, _, err := runOne(d, t.placer, o, nil)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", t.profile.Name, t.placer, err)
		}
		o.log("table2: %s / %s -> HOF=%.2f%% VOF=%.2f%% WL=%.0f RT=%s",
			t.profile.Name, t.placer, rec.Final.HOF, rec.Final.VOF, rec.Final.WL, rec.PlaceRuntime().Round(time.Millisecond))
		rows[i] = rec
		return nil
	}
	if o.Parallel {
		if err := par.ForErr(o.ctx(), len(tasks), run); err != nil {
			return nil, nil, err
		}
	} else {
		for i := range tasks {
			if err := flow.Check(o.ctx()); err != nil {
				return nil, nil, err
			}
			if err := run(i); err != nil {
				return nil, nil, err
			}
		}
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
	for _, r := range byFlow[PUFFER.Flow()] {
		pufferWL[r.Design] = r.Final.WL
		pufferRT[r.Design] = r.PlaceRuntime().Seconds()
	}
	var out []Table2Summary
	for _, placer := range []PlacerName{Commercial, RePlAce, PUFFER} {
		rs := byFlow[placer.Flow()]
		if len(rs) == 0 {
			continue
		}
		s := Table2Summary{Placer: placer}
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
	designs := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Design] {
			seen[r.Design] = true
			designs = append(designs, r.Design)
		}
	}
	byKey := map[string]*pipeline.Record{}
	for _, r := range rows {
		byKey[r.Design+"/"+r.Flow] = r
	}
	fmt.Fprintf(&b, "%-16s", "Benchmark")
	for _, p := range []PlacerName{Commercial, RePlAce, PUFFER} {
		fmt.Fprintf(&b, " | %-37s", p)
	}
	fmt.Fprintf(&b, "\n%-16s", "")
	for range 3 {
		fmt.Fprintf(&b, " | %7s %7s %10s %8s", "HOF(%)", "VOF(%)", "WL", "RT(s)")
	}
	fmt.Fprintf(&b, "\n")
	for _, dn := range designs {
		fmt.Fprintf(&b, "%-16s", dn)
		for _, p := range []PlacerName{Commercial, RePlAce, PUFFER} {
			r := byKey[dn+"/"+p.Flow()]
			fmt.Fprintf(&b, " | %7.2f %7.2f %10.0f %8.2f", r.Final.HOF, r.Final.VOF, r.Final.WL, r.PlaceRuntime().Seconds())
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "%-16s", "Average")
	for _, p := range []PlacerName{Commercial, RePlAce, PUFFER} {
		for _, s := range sums {
			if s.Placer == p {
				fmt.Fprintf(&b, " | %7.3f %7.3f %10.3f %8.3f", s.AvgHOF, s.AvgVOF, s.WLNorm, s.RTNorm)
			}
		}
	}
	fmt.Fprintf(&b, "\n%-16s", "Pass Count")
	for _, p := range []PlacerName{Commercial, RePlAce, PUFFER} {
		for _, s := range sums {
			if s.Placer == p {
				fmt.Fprintf(&b, " | %7d %7d %10s %8s", s.PassCountHOF, s.PassCountVOF, "-", "-")
			}
		}
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

func mergeDefaults(o Options) Options {
	def := DefaultOptions()
	if o.Scale == 0 {
		o.Scale = def.Scale
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	return o
}

// SortRows orders rows by design then placer, for stable output.
func SortRows(rows []*pipeline.Record) {
	order := map[string]int{Commercial.Flow(): 0, RePlAce.Flow(): 1, PUFFER.Flow(): 2}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Design != rows[j].Design {
			return rows[i].Design < rows[j].Design
		}
		return order[rows[i].Flow] < order[rows[j].Flow]
	})
}
