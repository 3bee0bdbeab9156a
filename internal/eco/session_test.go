package eco

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// testDesign generates a small synthetic design; same (scale, seed) means
// a bit-identical design.
func testDesign(scale int, seed int64) *netlist.Design {
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		panic(err)
	}
	return synth.Generate(p, scale, seed)
}

// testConfig is a fast cold configuration for session tests.
func testConfig(workers int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Place.MaxIters = 150
	cfg.Place.MinIters = 20
	cfg.Place.Seed = 1
	cfg.Workers = workers
	return cfg
}

// moveDelta builds a delta displacing frac of the movable cells by (dx, dy)
// from their current centers, clamped to keep the outline in-region.
func moveDelta(d *netlist.Design, frac, dx, dy float64) *Delta {
	dl := &Delta{}
	ids := d.MovableIDs()
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	for k := 0; k < len(ids); k += step {
		c := &d.Cells[ids[k]]
		ctr := c.Rect().Center()
		x := ctr.X + dx
		y := ctr.Y + dy
		if x-c.W/2 < d.Region.Lo.X {
			x = d.Region.Lo.X + c.W/2
		}
		if x+c.W/2 > d.Region.Hi.X {
			x = d.Region.Hi.X - c.W/2
		}
		if y-c.H/2 < d.Region.Lo.Y {
			y = d.Region.Lo.Y + c.H/2
		}
		if y+c.H/2 > d.Region.Hi.Y {
			y = d.Region.Hi.Y - c.H/2
		}
		dl.Moves = append(dl.Moves, CellMove{Cell: ids[k], X: x, Y: y})
	}
	return dl
}

func TestApplyRequiresBasePlacement(t *testing.T) {
	s, err := New(testDesign(2000, 1), testConfig(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), &Delta{Weights: []NetReweight{{Net: 0, Weight: 2}}}); err != ErrNotPlaced {
		t.Fatalf("Apply before Place: got %v, want ErrNotPlaced", err)
	}
}

func TestApplyRejectsEmptyAndInvalidDeltas(t *testing.T) {
	s, err := New(testDesign(2000, 1), testConfig(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), &Delta{}); err == nil {
		t.Fatal("empty delta accepted")
	}
	bad := &Delta{Moves: []CellMove{{Cell: 1 << 30, X: 0, Y: 0}}}
	if _, err := s.Apply(context.Background(), bad); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	nan := &Delta{Moves: []CellMove{{Cell: 0, X: math.NaN(), Y: 0}}}
	if _, err := s.Apply(context.Background(), nan); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
}

// TestApplyDeterministicAcrossWorkers is the Session-level counterpart of
// TestGPDeterminismAcrossWorkers: the whole ECO path — cold place, then a
// delta chain through the estimator, padding, warm GP, legal, and detailed
// placement — must produce bit-identical placements at any worker count.
// Every run's engine must run on a team of the asked size (its place.gp
// span's workers arg). Over the whole chain the helpers must really run
// shards with 4 workers and none with 1 (the spans' handoffs args); a
// single run's hand-offs depend on the scheduler, so they are not asserted
// per run.
func TestApplyDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(workers int) (*netlist.Design, []float64) {
		d := testDesign(300, 7)
		tr := obs.NewTracer()
		cfg := testConfig(workers)
		cfg.Obs = obs.NewRecorder(tr, nil)
		s, err := New(d, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var hpwls []float64
		res, err := s.Place(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		hpwls = append(hpwls, res.HPWL)
		for i, dl := range []*Delta{
			moveDelta(d, 0.04, 3.0, -2.0),
			{Weights: []NetReweight{{Net: 0, Weight: 3}, {Net: 5, Weight: 2}}},
		} {
			res, err := s.Apply(context.Background(), dl)
			if err != nil {
				t.Fatalf("delta %d (workers=%d): %v", i, workers, err)
			}
			hpwls = append(hpwls, res.HPWL)
		}
		gp := gpSpans(t, tr)
		if len(gp) != 3 {
			t.Fatalf("workers=%d: %d place.gp spans, want one per run (3)", workers, len(gp))
		}
		handoffs := 0.0
		for i, args := range gp {
			if args["workers"] != float64(workers) {
				t.Fatalf("run %d (workers=%d): engine on %v executors", i, workers, args["workers"])
			}
			h, ok := args["handoffs"].(float64)
			if !ok {
				t.Fatalf("run %d (workers=%d): place.gp span has no handoffs arg", i, workers)
			}
			handoffs += h
		}
		if (workers > 1) != (handoffs > 0) {
			t.Fatalf("workers=%d: the chain's helpers ran %v shards", workers, handoffs)
		}
		return d, hpwls
	}
	d1, h1 := run(1)
	d4, h4 := run(4)
	for i := range h1 {
		if h1[i] != h4[i] {
			t.Fatalf("HPWL[%d] diverges: workers=1 %v, workers=4 %v", i, h1[i], h4[i])
		}
	}
	for i := range d1.Cells {
		if d1.Cells[i].X != d4.Cells[i].X || d1.Cells[i].Y != d4.Cells[i].Y {
			t.Fatalf("cell %d position diverges: (%v,%v) vs (%v,%v)",
				i, d1.Cells[i].X, d1.Cells[i].Y, d4.Cells[i].X, d4.Cells[i].Y)
		}
	}
}

// gpSpans returns the args of every place.gp span tr recorded, in the
// order the spans ended.
func gpSpans(t *testing.T, tr *obs.Tracer) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, ev := range doc.TraceEvents {
		if ev.Name == "place.gp" {
			out = append(out, ev.Args)
		}
	}
	return out
}

// TestChainConvergesToColdQuality: after an N-delta chain, the session's
// placement must land in the same quality band as a cold run on the final
// design (same netlist mutations, fresh placement). Movable-cell moves do
// not change what a cold run sees — net weights and resizes do — so the
// cold reference applies only those.
func TestChainConvergesToColdQuality(t *testing.T) {
	d := testDesign(800, 3)
	cfg := testConfig(2)
	s, err := New(d, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	deltas := []*Delta{
		moveDelta(d, 0.05, 4.0, 1.0),
		{Weights: []NetReweight{{Net: 2, Weight: 2.5}, {Net: 9, Weight: 1.8}}},
		{Resizes: []CellResize{{Cell: d.MovableIDs()[0], W: d.Cells[d.MovableIDs()[0]].W * 1.5}}},
		moveDelta(d, 0.05, -2.0, -3.0),
	}
	var warm *pipeline.Result
	for i, dl := range deltas {
		warm, err = s.Apply(context.Background(), dl)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}

	// Cold reference: fresh design, replay the netlist-level mutations.
	ref := testDesign(800, 3)
	for _, dl := range deltas {
		for _, w := range dl.Weights {
			ref.Nets[w.Net].Weight = w.Weight
		}
		for _, r := range dl.Resizes {
			c := &ref.Cells[r.Cell]
			if r.W > 0 {
				c.W = r.W
			}
			if r.H > 0 {
				c.H = r.H
			}
		}
	}
	cold, err := pipeline.Execute(context.Background(), ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ratio := warm.HPWL / cold.HPWL
	t.Logf("warm chain HPWL=%.0f cold HPWL=%.0f ratio=%.3f (overflow warm=%.3f cold=%.3f)",
		warm.HPWL, cold.HPWL, ratio, warm.GP.Overflow, cold.GP.Overflow)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("warm chain HPWL %.0f outside the cold quality band (cold %.0f, ratio %.3f)",
			warm.HPWL, cold.HPWL, ratio)
	}
	if warm.GP.Overflow > cold.GP.Overflow+0.15 {
		t.Fatalf("warm chain overflow %.3f much worse than cold %.3f",
			warm.GP.Overflow, cold.GP.Overflow)
	}
}

// TestParkRestoreNextDeltaExact: a parked-and-restored session's next
// delta must land on the same placement, bit for bit, as the uninterrupted
// session's — under the default configuration, since nothing the restored
// session lacks (engine buffers, fingerprints) feeds a result. The design
// is small and the warm budget one iteration, so the placement barely
// moves between the two deltas: the regime in which an estimator that
// carried per-net state across calls would diverge from a cold one. The
// second delta moves movable cells, or a fixed macro, which changes the
// density grid's fixed baseline.
func TestParkRestoreNextDeltaExact(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = 1
	cfg.Workers = 2
	opts := Options{WarmMaxIters: 1, WarmMinIters: 1}

	for _, tc := range []struct {
		name   string
		delta2 func(d *netlist.Design) *Delta
	}{
		{"movable", func(d *netlist.Design) *Delta { return moveDelta(d, 0.004, -3.0, 2.0) }},
		{"fixed", func(d *netlist.Design) *Delta {
			for i := range d.Cells {
				if d.Cells[i].Fixed {
					ctr := d.Cells[i].Rect().Center()
					return &Delta{Moves: []CellMove{{Cell: i, X: ctr.X + 1, Y: ctr.Y}}}
				}
			}
			t.Fatal("the design has no fixed cell")
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d1 := testDesign(500, 11) // ~390 nets
			s1, err := New(d1, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s1.Place(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := s1.Apply(context.Background(), moveDelta(d1, 0.004, 2.5, -1.5)); err != nil {
				t.Fatal(err)
			}

			// Park: snapshot, round-trip through disk like the service does.
			sn, err := s1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "snapshot.json")
			if err := sn.Save(path); err != nil {
				t.Fatal(err)
			}
			sn2, err := LoadSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}

			// Both sessions apply the same second delta. The delta is built
			// against s1's current placement; the restored design holds
			// identical positions (checkpoint), so it validates there too.
			delta2 := tc.delta2(d1)

			resU, err := s1.Apply(context.Background(), delta2)
			if err != nil {
				t.Fatal(err)
			}

			d2 := testDesign(500, 11)
			s2, err := Restore(d2, cfg, opts, sn2)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Deltas() != 1 {
				t.Fatalf("restored session reports %d deltas, want 1", s2.Deltas())
			}
			resR, err := s2.Apply(context.Background(), delta2)
			if err != nil {
				t.Fatal(err)
			}

			if resU.HPWL != resR.HPWL {
				t.Fatalf("restored session HPWL %v != uninterrupted %v (diff %g)",
					resR.HPWL, resU.HPWL, resR.HPWL-resU.HPWL)
			}
			for i := range d1.Cells {
				if d1.Cells[i].X != d2.Cells[i].X || d1.Cells[i].Y != d2.Cells[i].Y {
					t.Fatalf("cell %d diverges after restore: (%v,%v) vs (%v,%v)",
						i, d1.Cells[i].X, d1.Cells[i].Y, d2.Cells[i].X, d2.Cells[i].Y)
				}
			}
		})
	}
}

// TestLoadSnapshotIgnoresLegacyGridLevel: a v1 snapshot that carries a
// retired key still loads, validates and restores to the same session as
// the document without it: "grid_level" (every snapshot written before the
// density pyramid went had it, always 0) and "grid_m"/"grid_n" (the density
// grid a session pinned before every run derived its own).
func TestLoadSnapshotIgnoresLegacyGridLevel(t *testing.T) {
	s, err := New(testDesign(1200, 11), testConfig(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.json")
	if err := sn.Save(plain); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}

	restore := func(path string) *netlist.Design {
		sn, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		d := testDesign(1200, 11)
		if _, err := Restore(d, testConfig(1), Options{}, sn); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return d
	}
	for _, k := range []string{"grid_level", "grid_m", "grid_n"} {
		if bytes.Contains(data, []byte(k)) {
			t.Fatalf("Save still writes %s", k)
		}
	}
	want := restore(plain)
	for i, keys := range []string{`"grid_level":0,`, `"grid_m":32,"grid_n":32,`} {
		legacy := filepath.Join(dir, fmt.Sprintf("legacy%d.json", i))
		doc := bytes.Replace(data, []byte(`"last_hpwl"`), []byte(keys+`"last_hpwl"`), 1)
		if err := os.WriteFile(legacy, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		got := restore(legacy)
		for i := range want.Cells {
			w, g := want.Cells[i], got.Cells[i]
			if w.X != g.X || w.Y != g.Y || w.PadW != g.PadW {
				t.Fatalf("%s: cell %d: legacy (%v,%v,%v) != plain (%v,%v,%v)", keys, i, g.X, g.Y, g.PadW, w.X, w.Y, w.PadW)
			}
		}
	}
}

func TestRestoreRejectsWrongDesign(t *testing.T) {
	d := testDesign(1200, 11)
	s, err := New(d, testConfig(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := testDesign(1000, 11) // different scale → different netlist
	if _, err := Restore(other, testConfig(1), Options{}, sn); err == nil {
		t.Fatal("Restore accepted a snapshot for a different design")
	}
}

// TestApplyRejectsUnplaceableResize: a resize wider than the region is an
// ErrBadDelta, rejected before the delta touches the design, so the next
// delta re-places as if it had not been sent.
func TestApplyRejectsUnplaceableResize(t *testing.T) {
	d := testDesign(3000, 1) // region 11.5 x 10
	s, err := New(d, testConfig(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	dl, err := ParseDelta([]byte(`{"resizes":[{"cell":3,"w":23}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), dl); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("oversize resize: got %v, want ErrBadDelta", err)
	}
	if _, err := s.Apply(context.Background(), moveDelta(d, 0.1, 1.0, 0.5)); err != nil {
		t.Fatalf("the delta after a rejected one: %v", err)
	}
	if s.Deltas() != 1 {
		t.Fatalf("session counts %d deltas, want 1", s.Deltas())
	}
}

func seededRandomDelta(rng *rand.Rand, d *netlist.Design) *Delta {
	dl := &Delta{}
	ids := d.MovableIDs()
	for k := 0; k < len(ids)/20; k++ {
		ci := ids[rng.Intn(len(ids))]
		c := &d.Cells[ci]
		x := d.Region.Lo.X + c.W/2 + rng.Float64()*(d.Region.W()-c.W)
		y := d.Region.Lo.Y + c.H/2 + rng.Float64()*(d.Region.H()-c.H)
		dl.Moves = append(dl.Moves, CellMove{Cell: ci, X: x, Y: y})
	}
	return dl
}

// benchConfig is the production default flow (not the test-shortened
// one): the ECO SLO compares a warm small-delta re-place against the real
// cold wall a batch submission pays.
func benchConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = 1
	return cfg
}

// BenchmarkECOCold measures a full cold placement of the benchmark design;
// BenchmarkECOWarm measures a small-delta warm re-place on an open
// session. The repo benchmark's eco_chain workload reports a delta's wall
// as op_s_p50 and its stages as eco.gp_ms, eco.legal_ms and eco.dp_ms.
func BenchmarkECOCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := testDesign(800, 1)
		s, err := New(d, benchConfig(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Place(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECOWarm(b *testing.B) {
	d := testDesign(800, 1)
	s, err := New(d, benchConfig(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dl := seededRandomDelta(rng, d)
		b.StartTimer()
		if _, err := s.Apply(context.Background(), dl); err != nil {
			b.Fatal(err)
		}
	}
}
