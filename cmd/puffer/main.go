// Command puffer runs the paper's workflow from one binary. Bare flags run
// the PUFFER routability-driven placement flow (or one of the Table-II
// baselines) on a synthetic benchmark profile or a Bookshelf design, then
// evaluate the result with the built-in global router; the subcommands
// cover the rest of the loop.
//
// Usage:
//
//	puffer -design MEDIA_SUBSYS -scale 800                 # synthetic profile
//	puffer -aux path/to/design.aux                         # Bookshelf input
//	puffer -design OR1200 -placer replace                  # baseline flow
//	puffer -design OR1200 -out placed/ -pgm maps/          # save results
//	puffer explore -design OR1200 -budget 20 -out s.json   # Algorithm 3 strategy tuning
//	puffer -design CT_TOP -strategy s.json                 # place with the tuned strategy
//	puffer benchgen -dir bench/ -scale 800                 # export the suite as Bookshelf
//	puffer experiments -table2 -scale 800                  # regenerate tables and figures
//	puffer diag run.json                                   # summarize an artifact or CAS store
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"time"
)

// subcommands maps each subcommand word to its entry point; anything else
// is the placement flow's flags.
var subcommands = map[string]func(args []string, w io.Writer) error{
	"explore":     explore,
	"benchgen":    benchgen,
	"experiments": experimentsCmd,
	"diag":        diag,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run executes one command line, writing its report to w.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			return sub(args[1:], w)
		}
	}
	return placeFlow(args, w)
}

// source holds the design-source flags the subcommands share. Each
// subcommand seeds it with its own defaults before registering.
type source struct {
	design, aux string
	scale       int
	seed        int64
	iters       int
	timeout     time.Duration
}

// register adds -design (unless designUsage is empty), -scale and -seed to
// fs, plus -iters and -timeout when run is set, defaulting to s's values.
// -aux is the placement flow's own.
func (s *source) register(fs *flag.FlagSet, designUsage string, run bool) {
	if designUsage != "" {
		fs.StringVar(&s.design, "design", s.design, designUsage)
	}
	fs.IntVar(&s.scale, "scale", s.scale, "profile scale divisor (paper size / scale)")
	fs.Int64Var(&s.seed, "seed", s.seed, "random seed")
	if run {
		fs.IntVar(&s.iters, "iters", s.iters, "max global placement iterations (0 = default)")
		fs.DurationVar(&s.timeout, "timeout", s.timeout, "abort after this duration (0 = none)")
	}
}

// context is bounded by -timeout when it is set.
func (s *source) context() (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(context.Background(), s.timeout)
	}
	return context.WithCancel(context.Background())
}
