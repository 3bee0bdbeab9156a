package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"strings"

	"puffer/internal/experiments"
)

// experimentsCmd regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite, plus the ablation
// studies DESIGN.md lists.
func experimentsCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("puffer experiments", flag.ContinueOnError)
	src := source{scale: 3000, seed: 1}
	src.register(fs, "", true)
	var (
		all      = fs.Bool("all", false, "run every table, figure and ablation (the default when none is selected)")
		parallel = fs.Bool("parallel", false, "run Table-II cells concurrently (RT column becomes noisy)")
		pgmDir   = fs.String("pgm", "", "write Fig-5 maps as PGM images into this directory")
		subset   = fs.String("designs", "", "comma-separated design subset for Table II")
		o        experiments.Options
	)
	// Sections print in this order; -all runs every one but rtsweep.
	sections := []struct {
		name, usage string
		run         func() (string, error)
	}{
		{"table1", "Table I: benchmark statistics", func() (string, error) {
			return experiments.FormatTable1(experiments.Table1(o)), nil
		}},
		{"fig1", "Fig 1: grid-graph model", func() (string, error) { return experiments.Fig1(), nil }},
		{"fig2", "Fig 2: algorithm flow trace", func() (string, error) { return experiments.Fig2(o), nil }},
		{"fig3", "Fig 3: congestion estimation maps", func() (string, error) { return experiments.Fig3(), nil }},
		{"fig4", "Fig 4: feature extraction", func() (string, error) { return experiments.Fig4(), nil }},
		{"table2", "Table II: HOF/VOF/WL/RT comparison", func() (string, error) {
			rows, sums, err := experiments.Table2(o)
			experiments.SortRows(rows)
			return experiments.FormatTable2(rows, sums), err
		}},
		{"fig5", "Fig 5: congestion map comparison", func() (string, error) {
			maps, err := experiments.Fig5(o)
			if err != nil || *pgmDir == "" {
				return experiments.FormatFig5(maps), err
			}
			for _, m := range maps {
				if err := writePGMPair(filepath.Join(*pgmDir, fmt.Sprintf("%s_%s", m.Design, m.Placer)), m.H, m.V, m.W, m.Ht); err != nil {
					return "", err
				}
			}
			return experiments.FormatFig5(maps) + "\nPGM maps written to " + *pgmDir, nil
		}},
		{"rtsweep", "runtime-scaling sweep across design sizes", func() (string, error) {
			rows, err := experiments.RTSweep("MEDIA_SUBSYS", []int{6000, 3000, 1500, 800, 400}, o)
			return experiments.FormatRTSweep("MEDIA_SUBSYS", rows), err
		}},
		{"ablations", "ablation studies", func() (string, error) {
			var rows []experiments.AblationResult
			for _, fn := range []func(experiments.Options) (experiments.AblationResult, error){
				experiments.AblationFeatures,
				experiments.AblationExpansion,
				experiments.AblationRecycling,
				experiments.AblationLegalPadding,
			} {
				r, err := fn(o)
				if err != nil {
					return "", err
				}
				rows = append(rows, r)
			}
			return experiments.FormatAblations(append(rows, experiments.AblationTPE(src.seed))), nil
		}},
	}
	selected := make([]*bool, len(sections))
	for i, s := range sections {
		selected[i] = fs.Bool(s.name, false, s.usage)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	none := true
	for _, on := range selected {
		none = none && !*on
	}

	ctx, cancel := src.context()
	defer cancel()
	o = experiments.Options{
		Scale: src.scale, Seed: src.seed, PlaceIters: src.iters, Parallel: *parallel, Ctx: ctx,
		Logf: log.Printf,
	}
	if *subset != "" {
		o.Designs = strings.Split(*subset, ",")
	}
	for i, s := range sections {
		if !*selected[i] && !((*all || none) && s.name != "rtsweep") {
			continue
		}
		out, err := s.run()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	return nil
}
