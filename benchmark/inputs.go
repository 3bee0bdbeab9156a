package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"puffer/internal/bookshelf"
	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/synth"
)

// Every input the program under test sees is generated here from -seed:
// designs through internal/synth, ECO deltas and job orders through a
// math/rand source seeded from it. The same seed gives the same inputs.

// designSpec names one synthetic design: a Table-I profile and its scale
// divisor. The generation seed comes from the run.
type designSpec struct {
	Profile string
	Scale   int
}

var (
	// MEDIA_SUBSYS is the paper's worst Table-II design; /200 gives ≈6.2k
	// cells on a 128² density grid.
	designCongested = designSpec{"MEDIA_SUBSYS", 200}
	// CT_TOP/75 keeps ≥16,641 movable cells so the automatic density grid
	// is 256². Shrink reps, never this size.
	designLargeCalm = designSpec{"CT_TOP", 75}
	designEco       = designSpec{"OR1200", 40}
	// Service jobs: tiny profile jobs and ≈600-cell uploads.
	designServeProfile = designSpec{"OR1200", 800}
	designServeUpload  = designSpec{"OR1200", 200}
	// Companion probes in traced runs of workloads that do not exercise
	// ECO sessions themselves.
	designEcoProbe = designSpec{"OR1200", 200}
)

func (s designSpec) generate(seed int64) (*netlist.Design, error) {
	p, err := synth.ProfileByName(s.Profile)
	if err != nil {
		return nil, err
	}
	return synth.Generate(p, s.Scale, seed), nil
}

// subSeed derives the k-th auxiliary seed of a run (distinct designs of one
// service run, the delta stream, the job order).
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// deltaGen produces the seeded ECO delta chain: each delta moves 1 % of
// the movable cells anywhere in the region, resizes 0.2 % by one site, and
// reweights 0.5 % of the nets; every 10th also overrides padding on a few
// cells. Deltas are generated against the session's current design, so a
// resize always starts from the cell's present width.
type deltaGen struct {
	rng     *rand.Rand
	movable []int
	n       int
}

func newDeltaGen(d *netlist.Design, seed int64) *deltaGen {
	return &deltaGen{rng: rand.New(rand.NewSource(seed)), movable: d.MovableIDs()}
}

func share(n int, frac float64) int {
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	return k
}

func (g *deltaGen) next(d *netlist.Design) *eco.Delta {
	g.n++
	dl := &eco.Delta{Format: eco.DeltaFormat}
	perm := g.rng.Perm(len(g.movable))
	nMove := share(len(g.movable), 0.01)
	nResize := share(len(g.movable), 0.002)
	for _, k := range perm[:nMove] {
		c := &d.Cells[g.movable[k]]
		x := d.Region.Lo.X + c.W/2 + g.rng.Float64()*(d.Region.W()-c.W)
		y := d.Region.Lo.Y + c.H/2 + g.rng.Float64()*(d.Region.H()-c.H)
		dl.Moves = append(dl.Moves, eco.CellMove{Cell: g.movable[k], X: x, Y: y})
	}
	for _, k := range perm[nMove : nMove+nResize] {
		c := &d.Cells[g.movable[k]]
		w := c.W + d.SiteWidth
		if g.rng.Intn(2) == 0 && c.W >= 3*d.SiteWidth {
			w = c.W - d.SiteWidth
		}
		dl.Resizes = append(dl.Resizes, eco.CellResize{Cell: g.movable[k], W: w})
	}
	for i := share(len(d.Nets), 0.005); i > 0; i-- {
		dl.Weights = append(dl.Weights, eco.NetReweight{
			Net: g.rng.Intn(len(d.Nets)), Weight: 0.5 + 1.5*g.rng.Float64()})
	}
	if g.n%10 == 0 {
		for _, k := range perm[len(perm)-3:] {
			dl.Padding = append(dl.Padding, eco.PadOverride{
				Cell: g.movable[k], PadW: float64(1+g.rng.Intn(3)) * d.SiteWidth})
		}
	}
	return dl
}

// bookshelfFiles serialises d with bookshelf.Write into dir and returns
// the files as the name → content map a job upload inlines.
func bookshelfFiles(d *netlist.Design, dir, base string) (map[string]string, error) {
	aux, err := bookshelf.Write(d, dir, base)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Dir(aux))
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), base+".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = string(data)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("bookshelf.Write left no %s.* files in %s", base, dir)
	}
	return files, nil
}
