package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"puffer/internal/cas"
	"puffer/internal/eco"
	"puffer/internal/xfarm"
	"puffer/pipeline"
)

// artifacts maps an artifact's format string (its "format" key, or
// "schema" for the run report) to the printer that loads it, from its path
// or the bytes already read, with the owning package's strict loader and
// summarizes it.
var artifacts = map[string]func(w io.Writer, path string, data []byte) error{
	pipeline.RecordSchema:     summarizeRecord,
	pipeline.CheckpointFormat: summarizeCheckpoint,
	eco.SnapshotFormat:        summarizeSession,
	xfarm.StateFormat:         summarizeExploreState,
}

// diag validates and summarizes one artifact: a run report (puffer
// -report), a stage checkpoint (puffer -checkpoint or a pufferd job
// spool), an ECO session snapshot (a pufferd session spool), an
// explore-state checkpoint (a coordinator job's explore-state.json), or,
// for a directory, a coordinator's content-addressed store.
func diag(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("puffer diag", flag.ContinueOnError)
	gc := fs.Bool("gc", false, "for a CAS store: also list the blobs a GC pass would delete (dry run)")
	gcApply := fs.Bool("gc-apply", false, "for a CAS store: delete the unreferenced blobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: puffer diag [-gc|-gc-apply] <artifact.json | cas-dir>")
	}
	path := fs.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.IsDir() {
		return summarizeCAS(w, path, *gc, *gcApply)
	}
	if *gc || *gcApply {
		return fmt.Errorf("-gc and -gc-apply take a CAS store directory, not the file %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct{ Format, Schema string } // keys match case-insensitively
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: not a JSON artifact: %w", path, err)
	}
	format := cmp.Or(head.Format, head.Schema)
	show, ok := artifacts[format]
	if !ok {
		return fmt.Errorf("%s: unknown artifact format %q (want one of %s)", path, format, strings.Join(sortedKeys(artifacts), ", "))
	}
	return show(w, path, data)
}

// summarizeRecord loads, prints, and round-trip-validates a run record.
func summarizeRecord(w io.Writer, path string, _ []byte) error {
	rec, err := pipeline.LoadRecord(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run report %s (%s)\n", path, rec.Schema)
	fmt.Fprintf(w, "%s flow on design %s: %d cells, %d nets, seed=%d\n", rec.Flow, rec.Design, rec.Cells, rec.Nets, rec.Seed)

	// Stage table, through the same fixed-format writer puffer -stats
	// uses.
	pipeline.WriteStageStats(w, rec.Stages)

	printKV(w, fmt.Sprintf("counters (%d):", len(rec.Metrics.Counters)), rec.Metrics.Counters)
	printKV(w, fmt.Sprintf("gauges (%d):", len(rec.Metrics.Gauges)), rec.Metrics.Gauges)
	if n := len(rec.Metrics.Series); n > 0 {
		fmt.Fprintf(w, "series (%d):\n", n)
		for _, k := range sortedKeys(rec.Metrics.Series) {
			ss := rec.Metrics.Series[k]
			if len(ss) == 0 {
				fmt.Fprintf(w, "  %-24s empty\n", k)
				continue
			}
			fmt.Fprintf(w, "  %-24s %d samples, first=%g last=%g\n",
				k, len(ss), ss[0].Value, ss[len(ss)-1].Value)
		}
	}
	// The final numbers print by their JSON keys, in key order.
	var final map[string]float64
	if data, err := json.Marshal(rec.Final); err != nil {
		return err
	} else if err := json.Unmarshal(data, &final); err != nil {
		return err
	}
	printKV(w, "final:", final)
	fmt.Fprintf(w, "stage log: %d lines\n", len(rec.StageLog))

	// Round trip: re-save and reload; a record diag cannot reproduce
	// losslessly is a bug in the schema.
	tmp := filepath.Join(os.TempDir(), fmt.Sprintf("diag-report-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	if err := rec.Save(tmp); err != nil {
		return fmt.Errorf("round trip save: %w", err)
	}
	again, err := pipeline.LoadRecord(tmp)
	if err != nil {
		return fmt.Errorf("round trip load: %w", err)
	}
	if again.Design != rec.Design || again.Flow != rec.Flow || len(again.Stages) != len(rec.Stages) ||
		len(again.Metrics.Series) != len(rec.Metrics.Series) {
		return fmt.Errorf("round trip mismatch: %s/%s/%d stages vs %s/%s/%d stages",
			again.Flow, again.Design, len(again.Stages), rec.Flow, rec.Design, len(rec.Stages))
	}
	fmt.Fprintln(w, "round trip: ok")
	return nil
}

// summarizeCheckpoint validates a stage-boundary checkpoint file and
// prints what a resume would see. LoadCheckpoint already rejects
// empty/truncated/foreign files, so reaching the summary means the file
// is a usable resume point for a design with matching counts.
func summarizeCheckpoint(w io.Writer, path string, _ []byte) error {
	cp, err := pipeline.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint %s (%s)\n", path, cp.Format)
	printCheckpoint(w, cp)
	return nil
}

// printCheckpoint prints a checkpoint's stage, counts, the bounding box of
// its positions, and its padding and net-weight totals.
func printCheckpoint(w io.Writer, cp *pipeline.Checkpoint) {
	fmt.Fprintf(w, "stage: %s\n", cp.Stage)
	fmt.Fprintf(w, "cells: %d  nets: %d\n", len(cp.X), len(cp.NetWeight))
	if len(cp.X) > 0 {
		fmt.Fprintf(w, "bbox: [%.2f, %.2f] x [%.2f, %.2f]\n",
			slices.Min(cp.X), slices.Max(cp.X), slices.Min(cp.Y), slices.Max(cp.Y))
	}
	var padded, reweighted int
	var padTotal float64
	for _, pw := range cp.PadW {
		if pw > 0 {
			padded++
			padTotal += pw
		}
	}
	for _, nw := range cp.NetWeight {
		if nw != 1 {
			reweighted++
		}
	}
	fmt.Fprintf(w, "padded cells: %d (total pad width %.2f)\n", padded, padTotal)
	fmt.Fprintf(w, "reweighted nets: %d\n", reweighted)
}

// summarizeSession validates a spooled ECO session snapshot and prints
// what a rehydrated session would see: the design identity hash, how far
// the delta chain has come, the congestion estimator's call count, the
// padding history, and the embedded placement checkpoint.
func summarizeSession(w io.Writer, path string, _ []byte) error {
	sn, err := eco.LoadSnapshot(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "session snapshot %s (%s)\n", path, sn.Format)
	fmt.Fprintf(w, "design hash: %s\n", sn.DesignHash)
	fmt.Fprintf(w, "deltas applied: %d\n", sn.Deltas)
	fmt.Fprintf(w, "last hpwl: %.2f  last overflow: %.4f\n", sn.LastHPWL, sn.LastOverflow)
	if sn.GridM > 0 {
		fmt.Fprintf(w, "warm density grid: %dx%d\n", sn.GridM, sn.GridN)
	}
	if sn.EstCalls > 0 {
		fmt.Fprintf(w, "estimator: %d calls\n", sn.EstCalls)
	}
	fmt.Fprintf(w, "padding history: iter %d, %d trigger times, last util %.4f\n",
		sn.Padding.Iter, len(sn.Padding.PadTimes), sn.Padding.LastUtil)
	printCheckpoint(w, sn.Checkpoint)
	return nil
}

// summarizeCAS opens a content-addressed store read-mostly and prints its
// inventory: every blob (size, refcount, GC eligibility), every cached
// result with its (design, config, engine) triple, and any orphans — files
// on disk the index doesn't know, or indexed blobs whose file is gone.
func summarizeCAS(w io.Writer, dir string, gc, apply bool) error {
	// cas.Open starts a fresh store in any directory; an inspector must
	// not, so a directory without the store's blobs/ is refused.
	if _, err := os.Stat(filepath.Join(dir, "blobs")); err != nil {
		return fmt.Errorf("%s is not a CAS store: %w", dir, err)
	}
	store, err := cas.Open(dir)
	if err != nil {
		return err
	}
	idx := store.Snapshot()
	garbage := store.Garbage()
	eligible := make(map[cas.Digest]bool, len(garbage))
	for _, d := range garbage {
		eligible[d] = true
	}

	fmt.Fprintf(w, "cas store %s: %d blobs, %d cached results\n\n", dir, len(idx.Blobs), len(idx.Results))
	if len(idx.Blobs) > 0 {
		fmt.Fprintf(w, "%-22s %12s %5s  %s\n", "BLOB", "BYTES", "REFS", "GC")
		var totalBytes int64
		blobs := slices.Clone(idx.Blobs)
		sort.Slice(blobs, func(i, j int) bool { return blobs[i].Digest < blobs[j].Digest })
		for _, b := range blobs {
			mark := ""
			if eligible[b.Digest] {
				mark = "eligible"
			}
			fmt.Fprintf(w, "%-22s %12d %5d  %s\n", b.Digest.Short(), b.Size, b.Refs, mark)
			totalBytes += b.Size
		}
		fmt.Fprintf(w, "%-22s %12d\n\n", "total", totalBytes)
	}

	if len(idx.Results) > 0 {
		fmt.Fprintf(w, "%-22s %-22s %-18s %-14s %12s\n", "DESIGN", "CONFIG", "ENGINE", "JOB", "HPWL")
		results := slices.Clone(idx.Results)
		sort.Slice(results, func(i, j int) bool { return results[i].Key() < results[j].Key() })
		for _, r := range results {
			fmt.Fprintf(w, "%-22s %-22s %-18s %-14s %12.0f\n",
				r.Design.Short(), r.Config.Short(), r.Engine, r.Job, r.HPWL)
		}
		fmt.Fprintln(w)
	}

	onDisk, missing, err := store.Orphans()
	if err != nil {
		return err
	}
	for _, d := range onDisk {
		fmt.Fprintf(w, "orphan on disk (not indexed): %s\n", d.Short())
	}
	for _, d := range missing {
		fmt.Fprintf(w, "indexed but missing on disk:  %s\n", d.Short())
	}

	if gc || apply {
		list, format := garbage, "gc dry run: %d blobs eligible\n"
		if apply {
			if list, err = store.GC(); err != nil {
				return err
			}
			format = "gc: removed %d blobs\n"
		}
		fmt.Fprintf(w, format, len(list))
		for _, d := range list {
			fmt.Fprintf(w, "  %s\n", d.Short())
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

// printKV prints a non-empty map under header as a name-sorted block.
func printKV[V int64 | float64](w io.Writer, header string, m map[string]V) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintln(w, header)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-24s %v\n", k, m[k])
	}
}

// summarizeExploreState validates and renders a puffer/explore-state/v1
// checkpoint: provenance (attempts, design, schedule parameters), the trial
// table in submission order, outcome tallies, the best assignment, and the
// merged parameter ranges Algorithm 3 has narrowed to.
func summarizeExploreState(w io.Writer, path string, data []byte) error {
	st, err := xfarm.ParseState(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "explore state: %s\n", path)
	fmt.Fprintf(w, "  format:   %s\n", st.Format)
	if st.Job != "" {
		fmt.Fprintf(w, "  job:      %s\n", st.Job)
	}
	if st.DesignDigest != "" {
		fmt.Fprintf(w, "  design:   %s\n", cas.Digest(st.DesignDigest).Short())
	}
	mode := "deterministic"
	if st.EarlyStop {
		mode = "early-stop"
	}
	fmt.Fprintf(w, "  schedule: seed=%d budget=%d (%s)\n", st.Seed, st.Budget, mode)
	fmt.Fprintf(w, "  attempts: %d (resumed %d time(s))\n", st.Attempts, st.Attempts-1)
	fmt.Fprintf(w, "  updated:  %s\n", st.UpdatedAt.Format(time.RFC3339))

	byState := map[string]int{}
	cacheHits := 0
	for _, t := range st.Trials {
		byState[t.State]++
		if t.CacheHit {
			cacheHits++
		}
	}
	fmt.Fprintf(w, "\ntrials: %d (done %d, submitted %d, canceled %d, failed %d; %d cache hits)\n",
		len(st.Trials), byState[xfarm.TrialDone], byState[xfarm.TrialSubmitted],
		byState[xfarm.TrialCanceled], byState[xfarm.TrialFailed], cacheHits)
	fmt.Fprintf(w, "%4s %6s %-12s %5s %-9s %12s %6s %6s  %s\n",
		"SEQ", "ROUND", "GROUP", "INDEX", "STATE", "SCORE", "CACHE", "ESTOP", "JOB")
	yes := map[bool]string{true: "yes", false: "-"}
	trials := slices.Clone(st.Trials)
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
		fmt.Fprintf(w, "%4d %6d %-12s %5d %-9s %12s %6s %6s  %s\n",
			t.Seq, t.Round, group, t.Index, t.State, score,
			yes[t.CacheHit], yes[t.EarlyStopped], t.JobID)
	}

	printKV(w, fmt.Sprintf("\nbest assignment (score %.6g):", st.BestScore), st.Best)
	if len(st.Ranges) > 0 {
		fmt.Fprintf(w, "\nmerged ranges:\n")
		for _, k := range sortedKeys(st.Ranges) {
			r := st.Ranges[k]
			fmt.Fprintf(w, "  %-18s [%g, %g]  mid %g\n", k, r.Lo, r.Hi, (r.Lo+r.Hi)/2)
		}
	}
	return nil
}
