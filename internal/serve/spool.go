package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"puffer/internal/fsx"
)

// Spool is the daemon's on-disk store of jobs, ECO sessions included.
// Layout under the root:
//
//	jobs/<id>/manifest.json      durable job record (atomic rewrite per transition)
//	jobs/<id>/design/            uploaded Bookshelf files, verbatim (the upload's one copy)
//	jobs/<id>/checkpoint.json    latest stage-boundary pipeline checkpoint
//	jobs/<id>/snapshot.json      eco snapshot of a session's last completed placement
//	jobs/<id>/report.json        structured run report (done place jobs)
//	jobs/<id>/trace.json         Chrome trace-event JSON
//	jobs/<id>/metrics.jsonl      streamed metric samples
//	jobs/<id>/strategy.json      tuned strategy (done explore jobs)
//
// An upload is stored once: its files land in design/ and the manifest is
// persisted without them, so the document every transition and status read
// round-trips stays small. Every manifest, checkpoint and design file
// write goes through a temp file + fsync + rename, so a daemon killed
// mid-write leaves either the previous or the next complete document —
// never a truncated one. Recovery only trusts manifests and the design
// files and snapshots they stand on; anything else is an artifact it can
// live without.
type Spool struct {
	root string
	jobs string

	mu sync.Mutex // serializes read-modify-write cycles

	// onWrite, when set, is called with every manifest document write
	// commits (tests observe the spool through it). Set it before the
	// server starts.
	onWrite func(data []byte)
}

// OpenSpool creates (if necessary) and opens a spool rooted at dir.
func OpenSpool(dir string) (*Spool, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: spool directory must be set")
	}
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open spool: %w", err)
	}
	return &Spool{root: dir, jobs: jobs}, nil
}

// CreateJob makes the job's directory, writes the uploaded design files
// into its design/ subdirectory, and persists m without its inline copy of
// them: design/ is the upload's only copy on this daemon. The design
// files, and the directory entries that reach them, are fsynced before the
// manifest is written, so not even a power loss leaves a manifest over a
// torn or missing design.
func (sp *Spool) CreateJob(m *Manifest) error {
	dir := sp.JobDir(m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: create job dir: %w", err)
	}
	if len(m.Spec.Bookshelf) > 0 {
		if err := writeDesign(dir, m.Spec.Bookshelf); err != nil {
			return fmt.Errorf("serve: spool job design: %w", err)
		}
		m.Spec.Bookshelf = nil
	}
	return sp.write(m)
}

// writeDesign writes an upload's files into dir/design, then fsyncs
// design/ and dir so the entries reaching the files are durable too.
func writeDesign(dir string, upload map[string]string) error {
	design := filepath.Join(dir, "design")
	if err := os.MkdirAll(design, 0o755); err != nil {
		return err
	}
	for name, content := range upload {
		if err := fsx.AtomicWriteFile(filepath.Join(design, name), []byte(content)); err != nil {
			return err
		}
	}
	if err := fsx.SyncDir(design); err != nil {
		return err
	}
	return fsx.SyncDir(dir)
}

// write persists m atomically, stamped with ManifestFormat.
func (sp *Spool) write(m *Manifest) error {
	m.Format = ManifestFormat
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode job manifest: %w", err)
	}
	data = append(data, '\n')
	if err := fsx.AtomicWriteFile(filepath.Join(sp.JobDir(m.ID), "manifest.json"), data); err != nil {
		return err
	}
	if sp.onWrite != nil {
		sp.onWrite(data)
	}
	return nil
}

// ReadManifest loads one job's manifest, rejecting any that does not carry
// ManifestFormat or that names another ID than its directory (every
// rewrite goes to the directory the manifest names).
func (sp *Spool) ReadManifest(id string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(sp.JobDir(id), "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("serve: decode manifest for job %s: %w", id, err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("serve: job %s: manifest format %q, want %q", id, m.Format, ManifestFormat)
	}
	if m.ID != id {
		return nil, fmt.Errorf("serve: job %s: manifest names job %q", id, m.ID)
	}
	return m, nil
}

// Update applies fn to the job's manifest under the spool lock and
// persists the result — the one safe way to make a state transition.
func (sp *Spool) Update(id string, fn func(*Manifest) error) (*Manifest, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	m, err := sp.ReadManifest(id)
	if err != nil {
		return nil, err
	}
	if err := fn(m); err != nil {
		return m, err
	}
	if err := sp.write(m); err != nil {
		return m, err
	}
	return m, nil
}

// List returns every job manifest in the spool, oldest submission first
// with the ID breaking ties, so the order is stable across boots.
// Unreadable manifests (foreign files, interrupted pre-hardening writes)
// are skipped.
func (sp *Spool) List() ([]*Manifest, error) {
	entries, err := os.ReadDir(sp.jobs)
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if m, err := sp.ReadManifest(e.Name()); err == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].SubmittedAt, out[j].SubmittedAt; !a.Equal(b) {
			return a.Before(b)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Root returns the spool's root directory.
func (sp *Spool) Root() string { return sp.root }

// JobDir returns the directory of one job.
func (sp *Spool) JobDir(id string) string { return filepath.Join(sp.jobs, id) }

// CheckpointPath returns the job's pipeline checkpoint path.
func (sp *Spool) CheckpointPath(id string) string {
	return filepath.Join(sp.JobDir(id), "checkpoint.json")
}

// SnapshotPath returns a session job's eco snapshot path.
func (sp *Spool) SnapshotPath(id string) string {
	return filepath.Join(sp.JobDir(id), "snapshot.json")
}

// ArtifactPath resolves a named artifact inside the job directory,
// rejecting names that would escape it.
func (sp *Spool) ArtifactPath(id, name string) (string, error) {
	if !bareName(name) {
		return "", fmt.Errorf("serve: bad artifact name %q", name)
	}
	return filepath.Join(sp.JobDir(id), name), nil
}

// bareName reports whether name is a plain file name, one that cannot
// leave the directory it is joined to.
func bareName(name string) bool {
	return name != "" && !strings.ContainsAny(name, `/\`) && !strings.Contains(name, "..")
}

// newJobID returns a fresh 12-hex-digit job or session ID.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Recover returns the jobs a booting daemon must pick up again, oldest
// first. requeue holds queued ones (never started), parked ones (gracefully
// drained) and running ones (the previous daemon crashed mid-job), all
// rewritten to queued: claiming them counts a new attempt, and they resume
// from their spooled checkpoint if one exists. A session whose snapshot is
// spooled is not placed again: it is rewritten to parked and returned in
// parked, for its next delta to rehydrate.
func (sp *Spool) Recover() (requeue, parked []*Manifest, err error) {
	all, err := sp.List()
	if err != nil {
		return nil, nil, err
	}
	for _, m := range all {
		if m.State.Terminal() {
			continue
		}
		next := StateQueued
		if m.Spec.Kind == KindSession {
			if _, err := os.Stat(sp.SnapshotPath(m.ID)); err == nil {
				next = StateParked
			}
		}
		if m.State != next {
			if m, err = sp.Update(m.ID, func(mm *Manifest) error {
				mm.State = next
				if next == StateQueued {
					mm.StartedAt = nil
				}
				return nil
			}); err != nil {
				return nil, nil, err
			}
		}
		if next == StateParked {
			parked = append(parked, m)
		} else {
			requeue = append(requeue, m)
		}
	}
	return requeue, parked, nil
}
