package pipeline

import (
	"encoding/json"
	"fmt"
	"os"

	"puffer/internal/fsx"
	"puffer/internal/netlist"
)

// CheckpointFormat identifies the checkpoint JSON document version.
// LoadCheckpoint rejects documents carrying any other format string (or
// none at all) instead of silently decoding whatever JSON it is handed —
// a job daemon resuming from a spool must fail loudly on a foreign or
// corrupt file, not resume from garbage positions.
const CheckpointFormat = "puffer/checkpoint/v1"

// Checkpoint is the complete cross-stage flow state of a design at a
// stage boundary: cell positions, analog cell padding, and net weights
// (mutated by the optional congestion-aware net weighting). Applying a
// checkpoint to a fresh instance of the same design and running the
// remaining stages reproduces the uninterrupted run exactly — float64
// values survive the JSON round trip bit for bit (shortest round-trip
// encoding), so file-based resume is loss-free.
type Checkpoint struct {
	// Format is the document version, CheckpointFormat. Capture and Save
	// stamp it; LoadCheckpoint validates it.
	Format string `json:"format"`
	// Stage is the name of the stage after which the state was captured.
	Stage string `json:"stage"`
	// X, Y, PadW are indexed by cell ID (fixed cells included, so the
	// checkpoint is position-complete and index-stable).
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
	PadW []float64 `json:"pad_w"`
	// NetWeight is indexed by net ID.
	NetWeight []float64 `json:"net_weight"`
}

// Capture snapshots d's flow state at the boundary after the named stage.
func Capture(stage string, d *netlist.Design) *Checkpoint {
	cp := &Checkpoint{
		Format:    CheckpointFormat,
		Stage:     stage,
		X:         make([]float64, len(d.Cells)),
		Y:         make([]float64, len(d.Cells)),
		PadW:      make([]float64, len(d.Cells)),
		NetWeight: make([]float64, len(d.Nets)),
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		cp.X[i], cp.Y[i], cp.PadW[i] = c.X, c.Y, c.PadW
	}
	for n := range d.Nets {
		cp.NetWeight[n] = d.Nets[n].Weight
	}
	return cp
}

// Validate checks the checkpoint's internal consistency: the format
// string, a non-empty stage name, and position/padding slices of equal
// length. Save refuses to write and LoadCheckpoint refuses to return a
// checkpoint that fails it.
func (cp *Checkpoint) Validate() error {
	if cp.Format != CheckpointFormat {
		return fmt.Errorf("checkpoint format %q, want %q", cp.Format, CheckpointFormat)
	}
	if cp.Stage == "" {
		return fmt.Errorf("checkpoint has no stage name")
	}
	if len(cp.Y) != len(cp.X) || len(cp.PadW) != len(cp.X) {
		return fmt.Errorf("checkpoint slices disagree: %d x, %d y, %d pad_w",
			len(cp.X), len(cp.Y), len(cp.PadW))
	}
	return nil
}

// Apply writes the checkpointed state back into d. The design must have
// the same cell and net counts as the one the checkpoint was captured
// from (i.e. be a fresh instance of the same design).
func (cp *Checkpoint) Apply(d *netlist.Design) error {
	if len(cp.X) != len(d.Cells) || len(cp.Y) != len(d.Cells) || len(cp.PadW) != len(d.Cells) {
		return fmt.Errorf("checkpoint has %d cells, design has %d", len(cp.X), len(d.Cells))
	}
	if len(cp.NetWeight) != len(d.Nets) {
		return fmt.Errorf("checkpoint has %d nets, design has %d", len(cp.NetWeight), len(d.Nets))
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		c.X, c.Y, c.PadW = cp.X[i], cp.Y[i], cp.PadW[i]
	}
	for n := range d.Nets {
		d.Nets[n].Weight = cp.NetWeight[n]
	}
	return nil
}

// Save writes the checkpoint as JSON, atomically: the bytes go to a
// temporary file in the destination directory which is then renamed over
// path, so a crash mid-write can never leave a truncated resume point —
// readers see either the previous complete checkpoint or the new one.
func (cp *Checkpoint) Save(path string) error {
	if cp.Format == "" {
		cp.Format = CheckpointFormat
	}
	if err := cp.Validate(); err != nil {
		return fmt.Errorf("pipeline: save checkpoint: %w", err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("pipeline: encode checkpoint: %w", err)
	}
	return atomicWrite(path, append(data, '\n'))
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory (rename is atomic within a filesystem).
func atomicWrite(path string, data []byte) error {
	return fsx.AtomicWriteFile(path, data)
}

// LoadCheckpoint reads a checkpoint saved by Save. It rejects empty or
// truncated files, JSON that is not a checkpoint document, and documents
// whose format field is missing or unknown, each with an error naming the
// file — any JSON object no longer decodes silently into a resume point.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("pipeline: checkpoint %s: file is empty", path)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("pipeline: decode checkpoint %s (empty, truncated, or not a checkpoint?): %w", path, err)
	}
	if err := cp.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint %s: %w", path, err)
	}
	return cp, nil
}
