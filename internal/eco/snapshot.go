package eco

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"puffer/internal/fsx"
	"puffer/internal/netlist"
	"puffer/internal/padding"
	"puffer/pipeline"
)

// SnapshotFormat identifies the session snapshot JSON document version.
const SnapshotFormat = "puffer/eco-session/v1"

// Snapshot is the durable state of a parked session: enough to rebuild a
// Session that continues the delta chain with the same results. Pure
// caches — density fingerprints, wirelength scratch, the estimator's
// buffers — are deliberately NOT captured: they are rebuilt on the first
// warm run after restore, and rebuilding them never changes results (the
// congestion estimate is from scratch on every call anyway).
// What IS captured is everything that would change results if lost: the
// placement (cell positions, padding, net weights via the embedded
// pipeline checkpoint), delta-applied cell sizes, the padding history
// (Eq. 15 recycling depends on it), and the warm-grid resolution.
type Snapshot struct {
	Format     string `json:"format"`
	DesignHash string `json:"design_hash"`
	Deltas     int    `json:"deltas"`

	LastHPWL     float64 `json:"last_hpwl"`
	LastOverflow float64 `json:"last_overflow"`
	GridM        int     `json:"grid_m,omitempty"`
	GridN        int     `json:"grid_n,omitempty"`

	// EstCalls is the session estimator's call count, for inspection
	// (puffer diag); not needed for restore.
	EstCalls int `json:"est_calls,omitempty"`
	// EstHitRate is never set: the estimator's journal is gone. Reader:
	// benchmark/eco.go (frozen); delete with the harness's next revision
	// (ROADMAP item 9).
	EstHitRate float64 `json:"est_hit_rate,omitempty"`

	// CellW/CellH are the current cell sizes, indexed by cell ID: deltas
	// resize cells, and the checkpoint alone (positions, padding, net
	// weights) cannot reproduce that against a pristine design source.
	CellW []float64 `json:"cell_w"`
	CellH []float64 `json:"cell_h"`

	Checkpoint *pipeline.Checkpoint `json:"checkpoint"`
	Padding    padding.State        `json:"padding"`
}

// DesignHash fingerprints the netlist identity a snapshot is bound to:
// name, region, cell/net/pin counts, fixed flags, and the pin wiring.
// Geometry that deltas legitimately change (positions, sizes, padding,
// weights) is excluded, so the hash is stable across a session's life but
// catches restoring against the wrong design source.
func DesignHash(d *netlist.Design) string {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	h.Write([]byte(d.Name))
	wf(d.Region.Lo.X)
	wf(d.Region.Lo.Y)
	wf(d.Region.Hi.X)
	wf(d.Region.Hi.Y)
	wu(uint64(len(d.Cells)))
	wu(uint64(len(d.Nets)))
	wu(uint64(len(d.Pins)))
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			wu(uint64(i))
		}
	}
	for i := range d.Pins {
		p := &d.Pins[i]
		wu(uint64(p.Cell)<<32 | uint64(uint32(p.Net)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Snapshot captures the session's durable state. The session must have a
// base placement.
func (s *Session) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.placed {
		return nil, ErrNotPlaced
	}
	sn := &Snapshot{
		Format:       SnapshotFormat,
		DesignHash:   DesignHash(s.d),
		Deltas:       s.deltas,
		LastHPWL:     s.lastHPWL,
		LastOverflow: s.lastOverflow,
		GridM:        s.gridM,
		GridN:        s.gridN,
		CellW:        make([]float64, len(s.d.Cells)),
		CellH:        make([]float64, len(s.d.Cells)),
		Checkpoint:   pipeline.Capture(pipeline.StageDP, s.d),
		Padding:      s.opt.State(),
	}
	for i := range s.d.Cells {
		sn.CellW[i] = s.d.Cells[i].W
		sn.CellH[i] = s.d.Cells[i].H
	}
	if s.estStats != nil {
		sn.EstCalls = s.estStats.Calls
	}
	return sn, nil
}

// Validate checks the snapshot's internal consistency.
func (sn *Snapshot) Validate() error {
	if sn.Format != SnapshotFormat {
		return fmt.Errorf("eco: snapshot format %q, want %q", sn.Format, SnapshotFormat)
	}
	if sn.DesignHash == "" {
		return fmt.Errorf("eco: snapshot has no design hash")
	}
	if sn.Checkpoint == nil {
		return fmt.Errorf("eco: snapshot has no checkpoint")
	}
	if err := sn.Checkpoint.Validate(); err != nil {
		return fmt.Errorf("eco: snapshot checkpoint: %w", err)
	}
	if len(sn.CellW) != len(sn.Checkpoint.X) || len(sn.CellH) != len(sn.Checkpoint.X) {
		return fmt.Errorf("eco: snapshot cell sizes (%d/%d) disagree with checkpoint (%d cells)",
			len(sn.CellW), len(sn.CellH), len(sn.Checkpoint.X))
	}
	if sn.Deltas < 0 {
		return fmt.Errorf("eco: snapshot delta count %d is negative", sn.Deltas)
	}
	return nil
}

// Save writes the snapshot as JSON atomically (temp file + rename), so a
// crash mid-write leaves the previous complete snapshot in place.
func (sn *Snapshot) Save(path string) error {
	if err := sn.Validate(); err != nil {
		return fmt.Errorf("eco: save snapshot: %w", err)
	}
	data, err := json.Marshal(sn)
	if err != nil {
		return fmt.Errorf("eco: encode snapshot: %w", err)
	}
	return fsx.AtomicWriteFile(path, append(data, '\n'))
}

// LoadSnapshot reads and validates a snapshot written by Save.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("eco: snapshot %s: file is empty", path)
	}
	sn := &Snapshot{}
	if err := json.Unmarshal(data, sn); err != nil {
		return nil, fmt.Errorf("eco: decode snapshot %s: %w", path, err)
	}
	if err := sn.Validate(); err != nil {
		return nil, fmt.Errorf("eco: snapshot %s: %w", path, err)
	}
	return sn, nil
}

// Restore rebuilds a parked session: d must be a fresh instance of the
// design the snapshot was captured from (same source the session was
// opened with — verified by DesignHash). The snapshot's cell sizes,
// placement checkpoint, and padding history are re-installed; engine
// caches rebuild on the first Apply. The restored session continues the
// delta chain where the parked one stopped.
func Restore(d *netlist.Design, cfg pipeline.Config, opts Options, sn *Snapshot) (*Session, error) {
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	if got := DesignHash(d); got != sn.DesignHash {
		return nil, fmt.Errorf("eco: snapshot design hash %s does not match design %s", sn.DesignHash, got)
	}
	if len(sn.CellW) != len(d.Cells) {
		return nil, fmt.Errorf("eco: snapshot has %d cells, design has %d", len(sn.CellW), len(d.Cells))
	}
	for i := range d.Cells {
		d.Cells[i].W = sn.CellW[i]
		d.Cells[i].H = sn.CellH[i]
	}
	if err := sn.Checkpoint.Apply(d); err != nil {
		return nil, fmt.Errorf("eco: restore: %w", err)
	}
	s, err := New(d, cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := s.opt.RestoreState(sn.Padding); err != nil {
		return nil, err
	}
	s.placed = true
	s.deltas = sn.Deltas
	s.lastHPWL = sn.LastHPWL
	s.lastOverflow = sn.LastOverflow
	s.gridM, s.gridN = sn.GridM, sn.GridN
	return s, nil
}
