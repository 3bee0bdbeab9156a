package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/synth"
)

// benchgen generates the synthetic industrial benchmark suite (the paper's
// Table I, scaled) and writes each design in Bookshelf format so it can be
// inspected or fed to other placement tools.
func benchgen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("puffer benchgen", flag.ContinueOnError)
	src := source{scale: 800, seed: 1}
	src.register(fs, "single profile name (default: all ten)", false)
	var (
		dir = fs.String("dir", "bench", "output directory")

		// Custom profile: set -cells to generate a bespoke design instead
		// of the Table-I suite.
		cells    = fs.Int("cells", 0, "custom profile: movable cell count (enables custom mode)")
		nets     = fs.Int("nets", 0, "custom profile: net count (default cells)")
		pins     = fs.Int("pins", 0, "custom profile: pin count (default 4x nets)")
		macros   = fs.Int("macros", 16, "custom profile: macro count")
		stress   = fs.Float64("stress", 0.5, "custom profile: routability stress in [0,1]")
		locality = fs.Float64("locality", 0.8, "custom profile: net locality in [0,1]")
		route    = fs.Bool("route", false, "also write an ISPD .route file per design")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	profiles := synth.Profiles
	switch {
	case *cells > 0:
		n := cmp.Or(*nets, *cells)
		profiles = []synth.Profile{{
			Name: "CUSTOM", Macros: *macros,
			Cells: *cells, Nets: n, Pins: cmp.Or(*pins, 4*n),
			Stress: *stress, Locality: *locality, Util: 0.68,
		}}
		src.scale = 1
	case src.design != "":
		p, err := synth.ProfileByName(src.design)
		if err != nil {
			return err
		}
		profiles = []synth.Profile{p}
	}
	for _, p := range profiles {
		d := synth.Generate(p, src.scale, src.seed)
		s := d.Stats()
		auxPath, err := bookshelf.Write(d, *dir, p.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		if *route {
			gw, gh := puffer.CongGridFor(d)
			rp := filepath.Join(*dir, p.Name+".route")
			if err := bookshelf.WriteRoute(d, rp, gw, gh); err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		fmt.Fprintf(w, "%-16s macros=%-4d cells=%-6d nets=%-6d pins=%-7d -> %s\n",
			p.Name, s.Macros, s.Cells, s.Nets, s.Pins, auxPath)
	}
	return nil
}
