package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"puffer/internal/eco"
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
}

// diag validates and summarizes one artifact: a run report (puffer
// -report), a stage checkpoint (puffer -checkpoint or a pufferd job
// spool) or an ECO session snapshot (a pufferd session job's spool).
func diag(args []string, w io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: puffer diag <artifact.json>")
	}
	path := args[0]
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
	fmt.Fprintf(w, "%s flow on design %s: %d cells, %d nets, seed=%d, engine %s\n",
		rec.Flow, rec.Design, rec.Cells, rec.Nets, rec.Seed, cmp.Or(rec.Engine, "unrecorded"))

	// Stage table, through the same fixed-format writer the puffer CLI
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
	if again.Design != rec.Design || again.Flow != rec.Flow || again.Engine != rec.Engine || len(again.Stages) != len(rec.Stages) ||
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
	if sn.EstCalls > 0 {
		fmt.Fprintf(w, "estimator: %d calls\n", sn.EstCalls)
	}
	fmt.Fprintf(w, "padding history: iter %d, %d trigger times, last util %.4f\n",
		sn.Padding.Iter, len(sn.Padding.PadTimes), sn.Padding.LastUtil)
	printCheckpoint(w, sn.Checkpoint)
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
