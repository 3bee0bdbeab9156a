// Package serve is the placement job service — the only one in the repo.
// A standalone cmd/pufferd and a fleet coordinator are the same Server: one
// HTTP surface, one admission path, one bounded tenant-lane queue with
// explicit backpressure, one durable spool with crash-safe recovery and
// graceful drain, one progress hub per job streamed to subscribers as
// server-sent events. Where a claimed job runs is behind Backend: the
// in-process worker pool here (each job through the staged pipeline with
// per-stage checkpoints into the spool), or a fleet of remote workers
// (internal/coord, which also plugs in the fleet-only hooks of Fleet).
//
// The package layers are:
//
//	job.go     — the job vocabulary: JobSpec, JobState, Manifest, JobResult
//	spool.go   — the on-disk job and session store (manifests, designs, checkpoints, artifacts)
//	queue.go   — the admission queue: tenant lanes, cap, rate limit, Retry-After
//	events.go  — the per-job progress hub (ring buffer + live subscribers)
//	backend.go — Backend, Fleet, and the job lifecycle around a backend run
//	local.go   — the local backend: jobs through pipeline/explore in process,
//	             and the run telemetry and design loading sessions share
//	server.go  — construction, recovery, drain, daemon metrics
//	api.go     — the HTTP surface (admission, REST, SSE, artifacts, debug)
//	session*.go — the ECO session runtime and API (standalone only)
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"puffer/internal/padding"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// ManifestFormat identifies the job manifest JSON document version.
const ManifestFormat = "puffer/job/v1"

// EngineVersion names the placement engine revision. It partitions the
// fleet's content-addressed result cache — a cached result is only reused
// by a daemon running the same engine version — and gates dispatch (a
// coordinator never sends work to a worker whose engine disagrees). Bump
// it with any change that can alter placement results; changes that only
// affect speed or observability keep it.
const EngineVersion = "puffer-engine/v10"

// JobKind selects what a job executes.
const (
	// KindPlace runs the staged placement pipeline (optionally with the
	// evaluation routing stage). Place jobs checkpoint after every stage
	// and resume from the spool after a daemon restart.
	KindPlace = "place"
	// KindExplore runs the Algorithm-3 strategy exploration. An in-process
	// exploration (the default) holds no cross-trial design state worth
	// spooling, so parked or crashed in-process explorations restart from
	// scratch on re-admission. A Distributed exploration runs as a farm
	// controller on the coordinator instead: it checkpoints a
	// puffer/explore-state/v1 manifest after every observation and resumes
	// without re-running finished trials.
	KindExplore = "explore"
)

// JobState is the lifecycle state of a job. Transitions:
//
//	queued → running → done | failed | canceled
//	running → parked (graceful drain) → queued (next boot)
//
// A crashed daemon leaves jobs in running; recovery treats them like
// parked ones and re-admits them.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateParked   JobState = "parked"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether a job in state s will never run again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is what a client submits: the design source (a synthetic profile
// or inlined Bookshelf files), the flow knobs, and the job's own deadline.
type JobSpec struct {
	// Kind is KindPlace (default) or KindExplore.
	Kind string `json:"kind,omitempty"`

	// Profile names a synthetic benchmark profile (internal/synth);
	// exactly one of Profile and Bookshelf must be set.
	Profile string `json:"profile,omitempty"`
	// Scale is the profile scale divisor (default 800).
	Scale int `json:"scale,omitempty"`
	// Seed is the generation/placement seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Bookshelf inlines an uploaded design as filename → file content.
	// Exactly one name must end in .aux; the referenced sibling files
	// must be present under the names the aux line uses. It is a
	// submission field only: a daemon stores the files once (a worker in
	// the job's design/, a coordinator in its content-addressed store)
	// and spools, echoes and serves the manifest without them.
	Bookshelf map[string]string `json:"bookshelf,omitempty"`

	// MaxIters caps global-placement iterations (0 = engine default).
	MaxIters int `json:"max_iters,omitempty"`
	// Workers caps the job's data parallelism (0 = GOMAXPROCS). For
	// in-process explore jobs it instead caps how many relevance groups
	// evaluate concurrently (1 = the fully serial baseline).
	Workers int `json:"workers,omitempty"`
	// Route appends the evaluation-routing stage to place jobs.
	Route bool `json:"route,omitempty"`
	// Strategy, when non-empty, is a padding.Strategy JSON document (the
	// cmd/explore -out format); zero-valued fields keep their defaults.
	Strategy json.RawMessage `json:"strategy,omitempty"`
	// Budget is the exploration trial budget for explore jobs (default 8).
	Budget int `json:"budget,omitempty"`
	// Distributed runs an explore job as a farm controller on the fleet
	// coordinator: every TPE trial dispatches as its own place job across
	// the workers, with cross-trial result caching and durable resume.
	// Coordinator-only — a plain worker rejects it.
	Distributed bool `json:"distributed,omitempty"`
	// EarlyStop (distributed explorations only) cancels trials mid-flight
	// once their streamed overflow is dominated by a finished competitor.
	// It trades the deterministic trial scoring for wall clock, so such
	// explorations never land in the result cache.
	EarlyStop bool `json:"early_stop,omitempty"`
	// WarmStart (distributed explorations only) seeds TPE priors and
	// narrowed ranges from finished explorations of the same design
	// family in the coordinator's spool.
	WarmStart bool `json:"warm_start,omitempty"`

	// TimeoutSec is the per-job deadline in seconds, enforced through the
	// pipeline's context support (0 = the server's default, if any). The
	// clock restarts when a parked job resumes.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Checkpoint, when non-empty, is a pipeline checkpoint document
	// (puffer/checkpoint/v1) seeded into the job's spool before it first
	// runs, so the job resumes mid-flow instead of starting cold. The
	// fleet coordinator uses it to re-admit a job on a surviving worker
	// from the dead worker's last mirrored checkpoint; it composes with
	// the single-node resume path unchanged.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// NoCache forces a full run even when the coordinator's result cache
	// already holds this (design, config, engine) triple. Single-node
	// daemons ignore it. It is excluded from the config digest — a forced
	// run refreshes the same cache slot it bypassed.
	NoCache bool `json:"nocache,omitempty"`
}

// Normalize fills defaulted fields in place.
func (s *JobSpec) Normalize() {
	if s.Kind == "" {
		s.Kind = KindPlace
	}
	if s.Scale == 0 {
		s.Scale = 800
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Kind == KindExplore && s.Budget == 0 {
		s.Budget = 8
	}
}

// Validate rejects malformed specs with a client-presentable error.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindPlace, KindExplore:
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", s.Kind, KindPlace, KindExplore)
	}
	if err := checkSource(s.Profile, s.Bookshelf, s.Strategy); err != nil {
		return err
	}
	if s.Scale < 0 || s.MaxIters < 0 || s.Workers < 0 || s.Budget < 0 || s.TimeoutSec < 0 {
		return fmt.Errorf("negative scale/max_iters/workers/budget/timeout_sec")
	}
	if s.Kind != KindExplore && (s.Distributed || s.EarlyStop || s.WarmStart) {
		return fmt.Errorf("distributed/early_stop/warm_start only apply to %q jobs", KindExplore)
	}
	if !s.Distributed && (s.EarlyStop || s.WarmStart) {
		return fmt.Errorf("early_stop and warm_start require distributed mode")
	}
	if len(s.Checkpoint) > 0 {
		if s.Kind != KindPlace {
			return fmt.Errorf("checkpoint seeding only applies to %q jobs", KindPlace)
		}
		cp := &pipeline.Checkpoint{}
		if err := json.Unmarshal(s.Checkpoint, cp); err != nil {
			return fmt.Errorf("checkpoint: not a checkpoint document: %v", err)
		}
		if err := cp.Validate(); err != nil {
			return fmt.Errorf("checkpoint: %v", err)
		}
	}
	return nil
}

// checkSource is the admission check jobs and sessions share: exactly one
// design source — a known synthetic profile, or a Bookshelf upload of bare
// file names with exactly one .aux — and a strategy document, when set,
// that decodes the way the run will decode it.
func checkSource(profile string, upload map[string]string, strategy json.RawMessage) error {
	if (profile == "") == (len(upload) == 0) {
		return fmt.Errorf("exactly one of profile and bookshelf must be set")
	}
	if profile != "" {
		if _, err := synth.ProfileByName(profile); err != nil {
			return err
		}
	}
	aux := 0
	for name := range upload {
		if !bareName(name) {
			return fmt.Errorf("bookshelf file name %q must be a bare file name", name)
		}
		if strings.HasSuffix(name, ".aux") {
			aux++
		}
	}
	if len(upload) > 0 && aux != 1 {
		return fmt.Errorf("bookshelf upload needs exactly one .aux file, got %d", aux)
	}
	if len(strategy) > 0 {
		st := padding.DefaultStrategy()
		if err := json.Unmarshal(strategy, &st); err != nil {
			return fmt.Errorf("decode strategy: %v", err)
		}
	}
	return nil
}

// designName names a design source in list rows and logs: the profile, or
// the name of the .aux file among the upload spooled under dir/design
// (admission allows exactly one). It is "" for an upload whose files live
// in a coordinator's store.
func designName(profile string, dir string) string {
	if profile != "" {
		return profile
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "design"))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".aux") {
			return e.Name()
		}
	}
	return ""
}

// JobResult is the final quality summary of a finished job, stored in the
// manifest and served by the result endpoint. The full run report, trace,
// and metric stream live next to it as downloadable artifacts. For a job
// that was parked and resumed, the statistics are cumulative across
// attempts: RuntimeMS sums every attempt, and the GP/padding counters come
// from the attempt that actually ran those stages.
type JobResult struct {
	HPWL        float64 `json:"hpwl,omitempty"`
	GPIters     int     `json:"gp_iters,omitempty"`
	GPOverflow  float64 `json:"gp_overflow,omitempty"`
	PaddingRuns int     `json:"padding_runs,omitempty"`
	RuntimeMS   float64 `json:"runtime_ms,omitempty"`
	// Routing metrics, present when the job ran the evaluation router.
	HOF      float64 `json:"hof,omitempty"`
	VOF      float64 `json:"vof,omitempty"`
	RoutedWL float64 `json:"routed_wl,omitempty"`
	// Exploration metrics, present for explore jobs.
	Trials    int     `json:"trials,omitempty"`
	BestScore float64 `json:"best_score,omitempty"`
	// Artifacts lists the downloadable files the job produced.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Manifest is the durable record of one job, spooled as manifest.json in
// the job's directory and rewritten atomically on every state transition —
// it is the single source of truth recovery reads after a crash.
type Manifest struct {
	Format string   `json:"format"`
	ID     string   `json:"id"`
	Spec   JobSpec  `json:"spec"`
	State  JobState `json:"state"`
	// Error is the failure (or cancel) message for failed/canceled jobs.
	Error string `json:"error,omitempty"`
	// Stage is the last stage a checkpoint was spooled after; a re-admitted
	// job resumes from it via Checkpoint.Apply.
	Stage string `json:"stage,omitempty"`
	// Attempts counts claims (1 on first run; +1 per park/crash resume and
	// per hand-off to another fleet worker).
	Attempts int `json:"attempts"`
	// TraceParent is the W3C traceparent header the submission carried, if
	// any; the worker adopts it so the job's trace joins the client's.
	TraceParent string `json:"traceparent,omitempty"`

	// Tenant is the queue lane the job waits in (X-Puffer-Tenant). A
	// coordinator records "default" when the header is absent; a standalone
	// daemon leaves it empty.
	//
	// The remaining fields below are set only on coordinator-spooled
	// manifests.
	Tenant string `json:"tenant,omitempty"`
	// Node/NodeAddr identify the worker the job was dispatched to.
	Node     string `json:"node,omitempty"`
	NodeAddr string `json:"node_addr,omitempty"`
	// RemoteID is the job's ID on that worker (workers mint their own IDs).
	RemoteID string `json:"remote_id,omitempty"`
	// CacheHit marks a job satisfied from the result cache without
	// dispatching; Origin is the coordinator job ID that computed it, and
	// result/artifact/event reads follow Origin.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Origin   string `json:"origin,omitempty"`
	// Parent is the controlling exploration job's ID for trial jobs the
	// farm controller submits on its own behalf (provenance: a trial's
	// manifest points back at the exploration that spawned it).
	Parent string `json:"parent,omitempty"`
	// DesignDigest/ConfigDigest/ResultDigest are the job's content
	// addresses (design blob or profile identity, normalized config, and
	// canonical result JSON once done).
	DesignDigest string `json:"design_digest,omitempty"`
	ConfigDigest string `json:"config_digest,omitempty"`
	ResultDigest string `json:"result_digest,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Result *JobResult `json:"result,omitempty"`
}
