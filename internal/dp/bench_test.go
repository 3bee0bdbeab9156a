package dp_test

import (
	"context"
	"sync"
	"testing"

	"puffer/internal/dp"
	"puffer/internal/netlist"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// legalizedOR1200 is OR1200/40 after the flow's global placement (padding
// rounds included) and legalization: the eco_chain design at the point the
// flow refines it, with the flow's refinement settings.
var legalizedOR1200 = sync.OnceValues(func() (*netlist.Design, error) {
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		return nil, err
	}
	rc, err := pipeline.NewRunContext(synth.Generate(p, 40, 1), pipeline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := pipeline.New(pipeline.GlobalPlace(), pipeline.Legalize()).Run(context.Background(), rc); err != nil {
		return nil, err
	}
	return rc.Design, nil
})

// BenchmarkRefine times one refinement of OR1200/40 after GP and
// legalization, and the reference refinement on the same placement.
func BenchmarkRefine(b *testing.B) {
	base, err := legalizedOR1200()
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig().DP
	for _, bc := range []struct {
		name   string
		refine func(*netlist.Design, dp.Config) (dp.Result, error)
	}{{"refine", dp.Refine}, {"reference", dp.RefineReference}} {
		b.Run(bc.name, func(b *testing.B) {
			d := base.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for c := range d.Cells {
					d.Cells[c].X, d.Cells[c].Y = base.Cells[c].X, base.Cells[c].Y
				}
				b.StartTimer()
				if _, err := bc.refine(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
