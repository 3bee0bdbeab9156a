package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"puffer/internal/obs"
)

// The traced run records every span from benchmark-side code into an
// obs.Tracer (the same span store the program's own telemetry uses, so a
// later in-program tracing issue lands in one tree) and folds the exported
// trace into per-name totals, self times and coverage ratios.

// spanRec is one exported span: identity, position in the tree, interval.
type spanRec struct {
	ID, Parent string
	Name       string
	StartUS    float64
	DurUS      float64
}

// exportSpans writes the tracer as Chrome trace-event JSON to path (when
// non-empty) and returns the spans it holds.
func exportSpans(t *obs.Tracer, path string) ([]spanRec, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return parseChromeTrace(buf.Bytes())
}

// parseChromeTrace decodes the obs.Tracer export back into span records.
func parseChromeTrace(data []byte) ([]spanRec, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	var out []spanRec
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["span_id"].(string)
		parent, _ := ev.Args["parent_span_id"].(string)
		out = append(out, spanRec{ID: id, Parent: parent, Name: ev.Name, StartUS: ev.Ts, DurUS: ev.Dur})
	}
	return out, nil
}

// spanTotals aggregates all spans sharing one name.
type spanTotals struct {
	Count   int
	TotalUS float64 // Σ duration
	SelfUS  float64 // Σ (duration − the part direct children cover)
	ChildUS float64 // Σ direct-children duration
}

// foldSpans computes per-name totals. A span's self time is its duration
// minus the durations of its direct children (children of one parent run
// sequentially on the parent's thread in this harness; concurrent work is
// recorded as separate root spans). Self time never goes below zero.
func foldSpans(spans []spanRec) map[string]*spanTotals {
	childSum := make(map[string]float64, len(spans))
	for _, s := range spans {
		if s.Parent != "" {
			childSum[s.Parent] += s.DurUS
		}
	}
	out := map[string]*spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.TotalUS += s.DurUS
		c := childSum[s.ID]
		t.ChildUS += c
		if self := s.DurUS - c; self > 0 {
			t.SelfUS += self
		}
	}
	return out
}

// coverage is the share of the named spans' wall that their direct
// children account for (1 = fully attributed). It returns 0 when no span
// has that name.
func coverage(folded map[string]*spanTotals, name string) float64 {
	t := folded[name]
	if t == nil || t.TotalUS == 0 {
		return 0
	}
	return t.ChildUS / t.TotalUS
}
