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
	"time"

	"puffer/internal/fsx"
	"puffer/pipeline"
)

// Spool is the daemon's on-disk store of jobs and ECO sessions. Layout
// under the root:
//
//	jobs/<id>/manifest.json      durable job record (atomic rewrite per transition)
//	jobs/<id>/design/            uploaded Bookshelf files, verbatim (the upload's one copy)
//	jobs/<id>/checkpoint.json    latest stage-boundary pipeline checkpoint
//	jobs/<id>/report.json        structured run report (done place jobs)
//	jobs/<id>/trace.json         Chrome trace-event JSON
//	jobs/<id>/metrics.jsonl      streamed metric samples
//	jobs/<id>/strategy.json      tuned strategy (done explore jobs)
//	sessions/<id>/manifest.json  durable session record
//	sessions/<id>/design/        uploaded Bookshelf files, verbatim (the upload's one copy)
//	sessions/<id>/snapshot.json  eco snapshot of the last completed delta
//	sessions/<id>/trace.json, metrics.jsonl  session telemetry
//
// Both manifest families go through one store; sessions/ appears with the
// first session, so a coordinator's spool never has one. An upload is
// stored once: its files land in design/ and the manifest is persisted
// without them, so the document every transition and status read
// round-trips stays small (a coordinator keeps uploads in its content-
// addressed store instead, and its spool has no design/ at all). Every
// manifest, checkpoint and design file write goes through a temp file +
// fsync + rename, so a daemon killed mid-write leaves either the previous
// or the next complete document — never a truncated one. Recovery only
// trusts manifests and the design files they stand on; anything else is
// an artifact it can live without.
type Spool struct {
	root     string
	jobs     store[Manifest, *Manifest]
	sessions store[SessionManifest, *SessionManifest]
}

// record is what the store needs of a manifest: the format field it
// stamps and checks, the ID, the time lists are ordered by, and a way to
// drop the inline upload create has stored under design/.
type record interface {
	header() (format *string, id string, at time.Time)
	dropUpload()
}

func (m *Manifest) header() (*string, string, time.Time) {
	return &m.Format, m.ID, m.SubmittedAt
}

func (m *Manifest) dropUpload() { m.Spec.Bookshelf = nil }

func (m *SessionManifest) header() (*string, string, time.Time) {
	return &m.Format, m.ID, m.OpenedAt
}

func (m *SessionManifest) dropUpload() { m.Spec.Bookshelf = nil }

// store is one manifest family: a directory per record under root, each
// holding a manifest.json that carries format.
type store[T any, M interface {
	*T
	record
}] struct {
	root   string
	format string
	noun   string // "job" or "session", for error messages

	mu sync.Mutex // serializes read-modify-write cycles
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
	return &Spool{
		root:     dir,
		jobs:     store[Manifest, *Manifest]{root: jobs, format: ManifestFormat, noun: "job"},
		sessions: store[SessionManifest, *SessionManifest]{root: filepath.Join(dir, "sessions"), format: SessionManifestFormat, noun: "session"},
	}, nil
}

func (st *store[T, M]) dir(id string) string { return filepath.Join(st.root, id) }

// create makes m's directory, writes the uploaded design files into its
// design/ subdirectory, and persists m without its inline copy of them:
// design/ is the upload's only copy on this daemon. The design files, and
// the directory entries that reach them, are fsynced before the manifest
// is written, so not even a power loss leaves a manifest over a torn or
// missing design.
func (st *store[T, M]) create(m M, upload map[string]string) error {
	_, id, _ := m.header()
	dir := st.dir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: create %s dir: %w", st.noun, err)
	}
	if len(upload) > 0 {
		if err := writeDesign(dir, upload); err != nil {
			return fmt.Errorf("serve: spool %s design: %w", st.noun, err)
		}
		m.dropUpload()
	}
	return st.write(m)
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

// write persists m atomically, stamped with the family's format.
func (st *store[T, M]) write(m M) error {
	format, id, _ := m.header()
	*format = st.format
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode %s manifest: %w", st.noun, err)
	}
	return fsx.AtomicWriteFile(filepath.Join(st.dir(id), "manifest.json"), append(data, '\n'))
}

// read loads one manifest, rejecting any that does not carry the family's
// format or that names another ID than its directory (every rewrite goes
// to the directory the manifest names).
func (st *store[T, M]) read(id string) (M, error) {
	data, err := os.ReadFile(filepath.Join(st.dir(id), "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := M(new(T))
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("serve: decode manifest for %s %s: %w", st.noun, id, err)
	}
	format, mid, _ := m.header()
	if *format != st.format {
		return nil, fmt.Errorf("serve: %s %s: manifest format %q, want %q", st.noun, id, *format, st.format)
	}
	if mid != id {
		return nil, fmt.Errorf("serve: %s %s: manifest names %s %q", st.noun, id, st.noun, mid)
	}
	return m, nil
}

// update applies fn to the manifest under the store lock and persists the
// result — the one safe way to make a state transition.
func (st *store[T, M]) update(id string, fn func(M) error) (M, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, err := st.read(id)
	if err != nil {
		return nil, err
	}
	if err := fn(m); err != nil {
		return m, err
	}
	if err := st.write(m); err != nil {
		return m, err
	}
	return m, nil
}

// list returns every manifest of the family, oldest first with the ID
// breaking ties, so the order is stable across boots. Unreadable manifests
// (foreign files, interrupted pre-hardening writes) are skipped.
func (st *store[T, M]) list() ([]M, error) {
	entries, err := os.ReadDir(st.root)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var out []M
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if m, err := st.read(e.Name()); err == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		_, a, at := out[i].header()
		_, b, bt := out[j].header()
		if !at.Equal(bt) {
			return at.Before(bt)
		}
		return a < b
	})
	return out, nil
}

// sweep passes every manifest of the family, in list order, to rule, which
// returns the edit to make durable (nil leaves the manifest alone). Each
// edit goes through update and the listed manifest becomes what was
// written, so whatever rule kept matches the disk.
func (st *store[T, M]) sweep(rule func(M) func(M) error) error {
	all, err := st.list()
	if err != nil {
		return err
	}
	for _, m := range all {
		edit := rule(m)
		if edit == nil {
			continue
		}
		_, id, _ := m.header()
		um, err := st.update(id, edit)
		if err != nil {
			return err
		}
		*m = *um
	}
	return nil
}

// Root returns the spool's root directory.
func (sp *Spool) Root() string { return sp.root }

// JobDir returns the directory of one job.
func (sp *Spool) JobDir(id string) string { return sp.jobs.dir(id) }

// CheckpointPath returns the job's pipeline checkpoint path.
func (sp *Spool) CheckpointPath(id string) string {
	return filepath.Join(sp.JobDir(id), "checkpoint.json")
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

// WriteArtifact atomically writes a named artifact into the job's
// directory (the fleet coordinator mirrors worker artifacts through it).
func (sp *Spool) WriteArtifact(id, name string, data []byte) error {
	path, err := sp.ArtifactPath(id, name)
	if err != nil {
		return err
	}
	return fsx.AtomicWriteFile(path, data)
}

// newJobID returns a fresh 12-hex-digit job or session ID.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// CreateJob allocates a job directory, writes the uploaded design files
// (if any) and the seeded checkpoint (if any), and persists the manifest.
func (sp *Spool) CreateJob(m *Manifest) error {
	if len(m.Spec.Checkpoint) > 0 {
		// Seed the spooled checkpoint so the first run resumes mid-flow —
		// exactly the file a parked job of this daemon would have left.
		// The document was validated at submission; its stage gates how
		// much of the flow is skipped.
		cp := &pipeline.Checkpoint{}
		if err := json.Unmarshal(m.Spec.Checkpoint, cp); err != nil {
			return fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if err := os.MkdirAll(sp.JobDir(m.ID), 0o755); err != nil {
			return fmt.Errorf("serve: create job dir: %w", err)
		}
		if err := cp.Save(sp.CheckpointPath(m.ID)); err != nil {
			return fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if m.Stage == "" {
			m.Stage = cp.Stage
		}
	}
	return sp.jobs.create(m, m.Spec.Bookshelf)
}

// ReadManifest loads one job's manifest.
func (sp *Spool) ReadManifest(id string) (*Manifest, error) { return sp.jobs.read(id) }

// Update applies fn to the job's manifest under the spool lock and
// persists the result — the one safe way to make a state transition.
func (sp *Spool) Update(id string, fn func(*Manifest) error) (*Manifest, error) {
	return sp.jobs.update(id, fn)
}

// List returns every job manifest in the spool, oldest submission first.
// Jobs whose manifests are unreadable are skipped.
func (sp *Spool) List() ([]*Manifest, error) { return sp.jobs.list() }

// Recover returns the jobs a booting daemon must pick up again, oldest
// first. requeue holds queued ones (never started), parked ones (gracefully
// drained) and running ones (the previous daemon crashed mid-job), all
// rewritten to queued: claiming them counts a new attempt, and they resume
// from their spooled checkpoint if one exists. attached holds the started
// jobs whose manifest names a remote worker — they kept running there while
// this server was down, so they are left as they are, to be re-attached
// rather than run again.
func (sp *Spool) Recover() (requeue, attached []*Manifest, err error) {
	err = sp.jobs.sweep(func(m *Manifest) func(*Manifest) error {
		switch {
		case m.State.Terminal():
		case m.RemoteID != "" && m.State != StateQueued:
			attached = append(attached, m)
		default:
			requeue = append(requeue, m)
			if m.State != StateQueued {
				return func(mm *Manifest) error {
					mm.State, mm.StartedAt = StateQueued, nil
					return nil
				}
			}
		}
		return nil
	})
	return requeue, attached, err
}
