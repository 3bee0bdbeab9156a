// Package eco implements incremental ECO (engineering change order)
// sessions over the PUFFER flow: a Session owns the warm state one
// placement run leaves behind — the parsed design, the routability
// optimizer with its congestion estimator, the density solver with its
// fixed baseline and deposit fingerprints, the wirelength model, the
// padding history, and the last placement — and
// re-enters the staged pipeline from that state for each submitted Delta
// instead of starting from scratch. A small delta re-places in a fraction
// of cold wall (BenchmarkECOCold vs BenchmarkECOWarm) while preserving the
// engine contracts: results are bit-deterministic for any worker count,
// and an N-delta chain lands in the same quality band as a cold run on the
// final design. See DESIGN.md §3g.
package eco

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"puffer/internal/netlist"
)

// DeltaFormat identifies the Delta JSON document version. ParseDelta
// accepts documents carrying this format string or none (the bare-object
// convenience form); anything else is rejected.
const DeltaFormat = "puffer/delta/v1"

// CellMove relocates a cell (standard cell or macro) to a new center.
type CellMove struct {
	Cell int     `json:"cell"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// CellResize changes a cell's physical outline. Zero W or H keeps the
// current value, so a width-only resize need not repeat the height.
type CellResize struct {
	Cell int     `json:"cell"`
	W    float64 `json:"w,omitempty"`
	H    float64 `json:"h,omitempty"`
}

// NetReweight overrides a net's weight.
type NetReweight struct {
	Net    int     `json:"net"`
	Weight float64 `json:"weight"`
}

// PadOverride pins a cell's routability padding to an explicit width,
// overriding whatever the optimizer computed. Negative values are invalid;
// zero clears the padding.
type PadOverride struct {
	Cell int     `json:"cell"`
	PadW float64 `json:"pad_w"`
}

// Delta is one ECO change set applied atomically by Session.Apply: cell
// and macro moves/resizes, net-weight changes, and padding overrides. The
// zero Delta is valid and empty (Apply rejects it — there is nothing to
// re-place).
type Delta struct {
	// Format is DeltaFormat; optional in the JSON form.
	Format string `json:"format,omitempty"`

	Moves   []CellMove    `json:"moves,omitempty"`
	Resizes []CellResize  `json:"resizes,omitempty"`
	Weights []NetReweight `json:"weights,omitempty"`
	Padding []PadOverride `json:"padding,omitempty"`
}

// Empty reports whether the delta contains no changes.
func (dl *Delta) Empty() bool {
	return len(dl.Moves) == 0 && len(dl.Resizes) == 0 &&
		len(dl.Weights) == 0 && len(dl.Padding) == 0
}

// ParseDelta strictly decodes a Delta document: unknown fields, trailing
// data, and foreign format strings are all errors. It performs only
// structural validation — Validate checks the ids and values against a
// concrete design.
func ParseDelta(data []byte) (*Delta, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	dl := &Delta{}
	if err := dec.Decode(dl); err != nil {
		return nil, fmt.Errorf("eco: decode delta: %w", err)
	}
	// Reject trailing content after the document — a second JSON document
	// or plain garbage alike: a concatenation is more likely a client bug
	// than an intentional encoding.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("eco: delta has trailing data after the JSON document")
	}
	if dl.Format != "" && dl.Format != DeltaFormat {
		return nil, fmt.Errorf("eco: delta format %q, want %q", dl.Format, DeltaFormat)
	}
	return dl, nil
}

// finite reports whether v is a usable coordinate/size value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks every id and value in the delta against design d:
// cell/net ids must be in range, coordinates finite, sizes positive,
// weights finite and non-negative, padding non-negative. Moved cells must
// land with their outline inside the placement region (fixed macros
// included — a macro shoved off-core is a client error, not a placement
// problem).
func (dl *Delta) Validate(d *netlist.Design) error {
	for i, m := range dl.Moves {
		if m.Cell < 0 || m.Cell >= len(d.Cells) {
			return fmt.Errorf("eco: moves[%d]: cell %d out of range [0,%d)", i, m.Cell, len(d.Cells))
		}
		if !finite(m.X) || !finite(m.Y) {
			return fmt.Errorf("eco: moves[%d]: non-finite target (%v, %v)", i, m.X, m.Y)
		}
		c := &d.Cells[m.Cell]
		if m.X-c.W/2 < d.Region.Lo.X || m.X+c.W/2 > d.Region.Hi.X ||
			m.Y-c.H/2 < d.Region.Lo.Y || m.Y+c.H/2 > d.Region.Hi.Y {
			return fmt.Errorf("eco: moves[%d]: cell %d at (%v, %v) leaves the region", i, m.Cell, m.X, m.Y)
		}
	}
	for i, r := range dl.Resizes {
		if r.Cell < 0 || r.Cell >= len(d.Cells) {
			return fmt.Errorf("eco: resizes[%d]: cell %d out of range [0,%d)", i, r.Cell, len(d.Cells))
		}
		if !finite(r.W) || !finite(r.H) || r.W < 0 || r.H < 0 {
			return fmt.Errorf("eco: resizes[%d]: invalid size (%v x %v)", i, r.W, r.H)
		}
		if r.W == 0 && r.H == 0 {
			return fmt.Errorf("eco: resizes[%d]: no dimension given", i)
		}
	}
	for i, w := range dl.Weights {
		if w.Net < 0 || w.Net >= len(d.Nets) {
			return fmt.Errorf("eco: weights[%d]: net %d out of range [0,%d)", i, w.Net, len(d.Nets))
		}
		if !finite(w.Weight) || w.Weight < 0 {
			return fmt.Errorf("eco: weights[%d]: invalid weight %v", i, w.Weight)
		}
	}
	for i, p := range dl.Padding {
		if p.Cell < 0 || p.Cell >= len(d.Cells) {
			return fmt.Errorf("eco: padding[%d]: cell %d out of range [0,%d)", i, p.Cell, len(d.Cells))
		}
		if !finite(p.PadW) || p.PadW < 0 {
			return fmt.Errorf("eco: padding[%d]: invalid pad_w %v", i, p.PadW)
		}
	}
	return nil
}

// apply mutates d with the delta's changes and reports whether any fixed
// cell moved or resized — the caller must then invalidate warm state that
// bakes the fixed landscape in (the density solver's baseline). Validate
// must have passed.
func (dl *Delta) apply(d *netlist.Design) (touchedFixed bool) {
	for _, m := range dl.Moves {
		c := &d.Cells[m.Cell]
		c.X = m.X - c.W/2
		c.Y = m.Y - c.H/2
		if c.Fixed {
			touchedFixed = true
		}
	}
	for _, r := range dl.Resizes {
		c := &d.Cells[r.Cell]
		// Resize about the center so the cell does not drift.
		cx, cy := c.X+c.W/2, c.Y+c.H/2
		if r.W > 0 {
			c.W = r.W
		}
		if r.H > 0 {
			c.H = r.H
		}
		c.X, c.Y = cx-c.W/2, cy-c.H/2
		if c.Fixed {
			touchedFixed = true
		}
	}
	for _, w := range dl.Weights {
		d.Nets[w.Net].Weight = w.Weight
	}
	for _, p := range dl.Padding {
		d.Cells[p.Cell].PadW = p.PadW
	}
	return touchedFixed
}

// Size returns the number of individual changes in the delta, the measure
// session telemetry and the service report.
func (dl *Delta) Size() int {
	return len(dl.Moves) + len(dl.Resizes) + len(dl.Weights) + len(dl.Padding)
}
