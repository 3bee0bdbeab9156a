// Command diag is a development harness with two modes:
//
//   - default: compare flow variants on a few profiles and print
//     HOF/VOF/WL/RT side by side — the tool used to calibrate the baseline
//     profiles against the paper's Table II shape;
//   - -report run.json: summarize a structured run report written by
//     cmd/puffer -report (stage statistics, recorded metric series, final
//     quality numbers), validating that the artifact round-trips;
//   - -ckpt checkpoint.json: validate and summarize a stage-boundary
//     checkpoint (cmd/puffer -checkpoint, or a pufferd job spool) — stage
//     name,
//     cell/net counts, and the bounding box of the stored positions;
//   - -session snapshot.json: validate and summarize a spooled ECO session
//     snapshot (a pufferd session spool) — design hash, delta count,
//     congestion-engine statistics, last HPWL/overflow, and the warm grid;
//   - -cas dir: inspect a coordinator's content-addressed store — blobs
//     with sizes and refcounts, cached results with their digest triples,
//     and on-disk orphans; -cas-gc additionally lists what a GC pass would
//     delete (dry run), -cas-gc-apply deletes it;
//   - -explore state.json: validate and render a distributed exploration's
//     explore-state checkpoint (a coordinator job's explore-state.json
//     artifact) — the trial table with schedule identities and outcomes,
//     the merged parameter ranges, the best assignment, and the resume
//     provenance (attempt count, cache hits, replays).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"puffer"
	"puffer/internal/baseline"
	"puffer/internal/cas"
	"puffer/internal/eco"
	"puffer/internal/obs"
	"puffer/internal/router"
	"puffer/internal/synth"
	"puffer/internal/xfarm"
	"puffer/pipeline"
)

func main() {
	scale := flag.Int("scale", 3000, "profile scale")
	seed := flag.Int64("seed", 1, "seed")
	reportPath := flag.String("report", "", "summarize this run report (JSON from cmd/puffer -report) instead of running comparisons")
	ckptPath := flag.String("ckpt", "", "validate and summarize this pipeline checkpoint instead of running comparisons")
	sessionPath := flag.String("session", "", "validate and summarize this ECO session snapshot instead of running comparisons")
	casDir := flag.String("cas", "", "inspect the content-addressed store rooted at this directory instead of running comparisons")
	casGC := flag.Bool("cas-gc", false, "with -cas: list the blobs a GC pass would delete (dry run)")
	casGCApply := flag.Bool("cas-gc-apply", false, "with -cas: actually delete unreferenced blobs")
	explorePath := flag.String("explore", "", "validate and summarize this explore-state checkpoint instead of running comparisons")
	flag.Parse()

	if *explorePath != "" {
		if err := summarizeExploreState(*explorePath); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *casDir != "" {
		if err := summarizeCAS(*casDir, *casGC, *casGCApply); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *reportPath != "" {
		if err := summarizeReport(*reportPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *ckptPath != "" {
		if err := summarizeCheckpoint(*ckptPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sessionPath != "" {
		if err := summarizeSession(*sessionPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	designs := []string{"CT_TOP", "MEDIA_SUBSYS", "A53_ADB_WRAP", "OR1200"}
	variants := []string{"plain", "puffer", "commercial", "replace"}

	for _, dname := range designs {
		p, _ := synth.ProfileByName(dname)
		for _, v := range variants {
			d := synth.Generate(p, *scale, *seed)
			gw, gh := puffer.CongGridFor(d)
			start := time.Now()
			var err error
			switch v {
			case "plain": // wirelength-only flow, no routability optimizer
				cfg := puffer.DefaultConfig()
				cfg.Place.Seed = *seed
				cfg.Strategy.MaxIters = 0
				cfg.Legal.InheritPadding = false
				cfg.DP.PreservePadding = false
				cfg.DP.Passes = 2
				_, err = puffer.Run(d, cfg)
			case "puffer":
				cfg := puffer.DefaultConfig()
				cfg.Place.Seed = *seed
				_, err = puffer.Run(d, cfg)
			case "commercial":
				opts := baseline.DefaultCommercialOpts()
				opts.Place.Seed = *seed
				_, err = baseline.RunCommercial(d, opts, gw, gh)
			case "replace":
				opts := baseline.DefaultRePlAceOpts()
				opts.Place.Seed = *seed
				_, err = baseline.RunRePlAce(d, opts, gw, gh)
			}
			rt := time.Since(start)
			if err != nil {
				fmt.Printf("%-14s %-12s ERROR %v\n", dname, v, err)
				continue
			}
			rr := puffer.Evaluate(d, router.DefaultConfig())
			fmt.Printf("%-14s %-12s HOF=%6.2f VOF=%6.2f WL=%7.0f RT=%6.0fms\n",
				dname, v, rr.HOF, rr.VOF, rr.WL, float64(rt.Milliseconds()))
		}
		fmt.Println()
	}
}

// summarizeReport loads, prints, and round-trip-validates a run report.
func summarizeReport(path string) error {
	rep, err := obs.LoadReport(path)
	if err != nil {
		return err
	}
	fmt.Printf("run report %s (%s)\n", path, rep.Schema)
	fmt.Printf("design %s: %d cells, %d nets, seed=%d\n", rep.Design, rep.Cells, rep.Nets, rep.Seed)

	// Stage table, through the same fixed-format writer cmd/puffer -stats
	// uses (StageReport carries no estimator type after decoding, so the
	// estimator detail lines are intentionally absent here).
	stages := make([]pipeline.StageStats, len(rep.Stages))
	for i, sr := range rep.Stages {
		stages[i] = pipeline.StageStats{
			Name:        sr.Name,
			Wall:        time.Duration(sr.WallNs),
			Iters:       sr.Iters,
			AllocsDelta: sr.AllocsDelta,
		}
	}
	pipeline.WriteStageStats(os.Stdout, stages)

	if n := len(rep.Metrics.Counters); n > 0 {
		names := sortedKeys(rep.Metrics.Counters)
		fmt.Printf("counters (%d):\n", n)
		for _, k := range names {
			fmt.Printf("  %-24s %d\n", k, rep.Metrics.Counters[k])
		}
	}
	if n := len(rep.Metrics.Gauges); n > 0 {
		names := sortedKeys(rep.Metrics.Gauges)
		fmt.Printf("gauges (%d):\n", n)
		for _, k := range names {
			fmt.Printf("  %-24s %g\n", k, rep.Metrics.Gauges[k])
		}
	}
	if n := len(rep.Metrics.Series); n > 0 {
		names := sortedKeys(rep.Metrics.Series)
		fmt.Printf("series (%d):\n", n)
		for _, k := range names {
			ss := rep.Metrics.Series[k]
			if len(ss) == 0 {
				fmt.Printf("  %-24s empty\n", k)
				continue
			}
			fmt.Printf("  %-24s %d samples, first=%g last=%g\n",
				k, len(ss), ss[0].Value, ss[len(ss)-1].Value)
		}
	}
	if len(rep.Final) > 0 {
		names := sortedKeys(rep.Final)
		fmt.Println("final:")
		for _, k := range names {
			fmt.Printf("  %-24s %g\n", k, rep.Final[k])
		}
	}
	fmt.Printf("stage log: %d lines\n", len(rep.StageLog))

	// Round trip: re-save and reload; a report cmd/diag cannot reproduce
	// losslessly is a bug in the schema.
	tmp := filepath.Join(os.TempDir(), fmt.Sprintf("diag-report-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	if err := rep.Save(tmp); err != nil {
		return fmt.Errorf("round trip save: %w", err)
	}
	again, err := obs.LoadReport(tmp)
	if err != nil {
		return fmt.Errorf("round trip load: %w", err)
	}
	if again.Design != rep.Design || len(again.Stages) != len(rep.Stages) ||
		len(again.Metrics.Series) != len(rep.Metrics.Series) {
		return fmt.Errorf("round trip mismatch: %s/%d stages vs %s/%d stages",
			again.Design, len(again.Stages), rep.Design, len(rep.Stages))
	}
	fmt.Println("round trip: ok")
	return nil
}

// summarizeCheckpoint validates a stage-boundary checkpoint file and
// prints what a resume would see: stage, counts, padding totals, and the
// bounding box of the stored positions. LoadCheckpoint already rejects
// empty/truncated/foreign files, so reaching the summary means the file
// is a usable resume point for a design with matching counts.
func summarizeCheckpoint(path string) error {
	cp, err := pipeline.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint %s (%s)\n", path, cp.Format)
	fmt.Printf("stage: %s\n", cp.Stage)
	fmt.Printf("cells: %d  nets: %d\n", len(cp.X), len(cp.NetWeight))
	if len(cp.X) > 0 {
		minX, maxX := cp.X[0], cp.X[0]
		minY, maxY := cp.Y[0], cp.Y[0]
		var padded int
		var padTotal float64
		for i := range cp.X {
			minX = math.Min(minX, cp.X[i])
			maxX = math.Max(maxX, cp.X[i])
			minY = math.Min(minY, cp.Y[i])
			maxY = math.Max(maxY, cp.Y[i])
			if cp.PadW[i] > 0 {
				padded++
				padTotal += cp.PadW[i]
			}
		}
		fmt.Printf("bbox: [%.2f, %.2f] x [%.2f, %.2f]\n", minX, maxX, minY, maxY)
		fmt.Printf("padded cells: %d (total pad width %.2f)\n", padded, padTotal)
	}
	var reweighted int
	for _, w := range cp.NetWeight {
		if w != 1 {
			reweighted++
		}
	}
	fmt.Printf("reweighted nets: %d\n", reweighted)
	return nil
}

// summarizeSession validates a spooled ECO session snapshot and prints
// what a rehydrated session would see: the design identity hash, how far
// the delta chain has come, the congestion estimator's call count, and
// the embedded placement checkpoint's headline numbers.
func summarizeSession(path string) error {
	sn, err := eco.LoadSnapshot(path)
	if err != nil {
		return err
	}
	fmt.Printf("session snapshot %s (%s)\n", path, sn.Format)
	fmt.Printf("design hash: %s\n", sn.DesignHash)
	fmt.Printf("deltas applied: %d\n", sn.Deltas)
	fmt.Printf("last hpwl: %.2f  last overflow: %.4f\n", sn.LastHPWL, sn.LastOverflow)
	if sn.GridM > 0 {
		fmt.Printf("warm density grid: %dx%d\n", sn.GridM, sn.GridN)
	}
	if sn.EstCalls > 0 {
		fmt.Printf("estimator: %d calls\n", sn.EstCalls)
	}
	cp := sn.Checkpoint
	fmt.Printf("checkpoint: stage %s, %d cells, %d nets\n", cp.Stage, len(cp.X), len(cp.NetWeight))
	var padded int
	var padTotal float64
	for i := range cp.X {
		if cp.PadW[i] > 0 {
			padded++
			padTotal += cp.PadW[i]
		}
	}
	fmt.Printf("padded cells: %d (total pad width %.2f)\n", padded, padTotal)
	fmt.Printf("padding history: iter %d, %d trigger times, last util %.4f\n",
		sn.Padding.Iter, len(sn.Padding.PadTimes), sn.Padding.LastUtil)
	return nil
}

// summarizeCAS opens a content-addressed store read-mostly and prints its
// inventory: every blob (size, refcount, GC eligibility), every cached
// result with its (design, config, engine) triple, and any orphans — files
// on disk the index doesn't know, or indexed blobs whose file is gone.
func summarizeCAS(dir string, gc, apply bool) error {
	store, err := cas.Open(dir)
	if err != nil {
		return err
	}
	idx := store.Snapshot()
	garbage := map[cas.Digest]bool{}
	for _, d := range store.Garbage() {
		garbage[d] = true
	}

	fmt.Printf("cas store %s: %d blobs, %d cached results\n\n", dir, len(idx.Blobs), len(idx.Results))
	if len(idx.Blobs) > 0 {
		fmt.Printf("%-22s %12s %5s  %s\n", "BLOB", "BYTES", "REFS", "GC")
		var totalBytes int64
		blobs := make([]cas.BlobInfo, len(idx.Blobs))
		copy(blobs, idx.Blobs)
		sort.Slice(blobs, func(i, j int) bool { return blobs[i].Digest < blobs[j].Digest })
		for _, b := range blobs {
			mark := ""
			if garbage[b.Digest] {
				mark = "eligible"
			}
			fmt.Printf("%-22s %12d %5d  %s\n", b.Digest.Short(), b.Size, b.Refs, mark)
			totalBytes += b.Size
		}
		fmt.Printf("%-22s %12d\n\n", "total", totalBytes)
	}

	if len(idx.Results) > 0 {
		fmt.Printf("%-22s %-22s %-18s %-14s %12s\n", "DESIGN", "CONFIG", "ENGINE", "JOB", "HPWL")
		results := make([]cas.ResultEntry, len(idx.Results))
		copy(results, idx.Results)
		sort.Slice(results, func(i, j int) bool { return results[i].Key() < results[j].Key() })
		for _, r := range results {
			fmt.Printf("%-22s %-22s %-18s %-14s %12.0f\n",
				r.Design.Short(), r.Config.Short(), r.Engine, r.Job, r.HPWL)
		}
		fmt.Println()
	}

	onDisk, missing, err := store.Orphans()
	if err != nil {
		return err
	}
	for _, d := range onDisk {
		fmt.Printf("orphan on disk (not indexed): %s\n", d.Short())
	}
	for _, d := range missing {
		fmt.Printf("indexed but missing on disk:  %s\n", d.Short())
	}

	switch {
	case apply:
		removed, err := store.GC()
		if err != nil {
			return err
		}
		fmt.Printf("gc: removed %d blobs\n", len(removed))
		for _, d := range removed {
			fmt.Printf("  %s\n", d.Short())
		}
	case gc:
		eligible := store.Garbage()
		fmt.Printf("gc dry run: %d blobs eligible\n", len(eligible))
		for _, d := range eligible {
			fmt.Printf("  %s\n", d.Short())
		}
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// summarizeExploreState validates and renders a puffer/explore-state/v1
// checkpoint: provenance (attempts, design, schedule parameters), the trial
// table in submission order, outcome tallies, the best assignment, and the
// merged parameter ranges Algorithm 3 has narrowed to.
func summarizeExploreState(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := xfarm.ParseState(data)
	if err != nil {
		return err
	}
	fmt.Printf("explore state: %s\n", path)
	fmt.Printf("  format:   %s\n", st.Format)
	if st.Job != "" {
		fmt.Printf("  job:      %s\n", st.Job)
	}
	if st.DesignDigest != "" {
		fmt.Printf("  design:   %s\n", cas.Digest(st.DesignDigest).Short())
	}
	mode := "deterministic"
	if st.EarlyStop {
		mode = "early-stop"
	}
	if st.WarmStart {
		mode += "+warm-start"
	}
	fmt.Printf("  schedule: seed=%d budget=%d (%s)\n", st.Seed, st.Budget, mode)
	fmt.Printf("  attempts: %d (resumed %d time(s))\n", st.Attempts, st.Attempts-1)
	fmt.Printf("  updated:  %s\n", st.UpdatedAt.Format(time.RFC3339))

	byState := map[string]int{}
	cacheHits := 0
	for _, t := range st.Trials {
		byState[t.State]++
		if t.CacheHit {
			cacheHits++
		}
	}
	fmt.Printf("\ntrials: %d (done %d, submitted %d, canceled %d, failed %d; %d cache hits)\n",
		len(st.Trials), byState[xfarm.TrialDone], byState[xfarm.TrialSubmitted],
		byState[xfarm.TrialCanceled], byState[xfarm.TrialFailed], cacheHits)
	fmt.Printf("%4s %6s %-12s %5s %-9s %12s %6s %6s  %s\n",
		"SEQ", "ROUND", "GROUP", "INDEX", "STATE", "SCORE", "CACHE", "ESTOP", "JOB")
	trials := append([]xfarm.TrialRecord(nil), st.Trials...)
	sort.Slice(trials, func(i, j int) bool { return trials[i].Seq < trials[j].Seq })
	for _, t := range trials {
		group := t.Group
		if group == "" {
			group = "(global)"
		}
		score := "-"
		if t.State == xfarm.TrialDone || t.State == xfarm.TrialFailed || t.State == xfarm.TrialCanceled {
			score = fmt.Sprintf("%.6g", t.Score)
		}
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return "-"
		}
		fmt.Printf("%4d %6d %-12s %5d %-9s %12s %6s %6s  %s\n",
			t.Seq, t.Round, group, t.Index, t.State, score,
			mark(t.CacheHit), mark(t.EarlyStopped), t.JobID)
	}

	if len(st.Best) > 0 {
		fmt.Printf("\nbest assignment (score %.6g):\n", st.BestScore)
		for _, k := range sortedKeys(st.Best) {
			fmt.Printf("  %-18s %g\n", k, st.Best[k])
		}
	}
	if len(st.Ranges) > 0 {
		fmt.Printf("\nmerged ranges:\n")
		for _, k := range sortedKeys(st.Ranges) {
			r := st.Ranges[k]
			fmt.Printf("  %-18s [%g, %g]  mid %g\n", k, r.Lo, r.Hi, (r.Lo+r.Hi)/2)
		}
	}
	return nil
}
