// Package serve is the placement job service behind cmd/pufferd — the only
// one in the repo: one HTTP surface, one admission path, one bounded
// tenant-lane queue with explicit backpressure, one durable spool with
// crash-safe recovery and graceful drain, one progress hub per job streamed
// to subscribers as server-sent events. Claimed jobs run on an in-process
// worker pool, each through the staged pipeline with per-stage checkpoints
// into the spool.
//
// The package layers are:
//
//	job.go       — the job vocabulary: JobSpec, JobState, Manifest, JobResult
//	spool.go     — the on-disk job store (manifests, designs, checkpoints, snapshots, artifacts)
//	queue.go     — the admission queue: tenant lanes, cap, rate limit, Retry-After
//	events.go    — the per-job progress hub (ring buffer + live subscribers)
//	lifecycle.go — the scheduler and the job lifecycle around one run
//	local.go     — the run itself: jobs through pipeline/explore/eco in process
//	server.go    — construction, recovery, drain, daemon metrics
//	api.go       — the HTTP surface (admission, REST, SSE, artifacts, debug)
//	session.go   — what a session job adds: warm state, deltas, eviction
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
)

// ManifestFormat identifies the job manifest JSON document version.
const ManifestFormat = "puffer/job/v1"

// JobKind selects what a job executes.
const (
	// KindPlace runs the staged placement pipeline (optionally with the
	// evaluation routing stage). Place jobs checkpoint after every stage
	// and resume from the spool after a daemon restart.
	KindPlace = "place"
	// KindExplore runs the Algorithm-3 strategy exploration in process. It
	// holds no cross-trial design state worth spooling, so a parked or
	// crashed exploration restarts from scratch on re-admission.
	KindExplore = "explore"
	// KindSession opens an interactive ECO session: its run is the cold
	// base placement, after which the job stays open and accepts deltas
	// (POST /api/v1/jobs/{id}/deltas) until it is canceled.
	KindSession = "session"
)

// JobState is the lifecycle state of a job. Transitions:
//
//	queued → running → done | failed | canceled
//	running → parked (graceful drain) → queued (next boot)
//
// A crashed daemon leaves jobs in running; recovery treats them like
// parked ones and re-admits them. A session job ends its run open
// instead of done, and stays open while its warm state is in memory:
//
//	running → open ⇄ parked (eviction or drain ⇄ the next delta)
//	open | parked → canceled
//
// A session parks only once its snapshot is spooled; one interrupted
// before that is re-admitted like any job and placed again.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateParked   JobState = "parked"
	StateOpen     JobState = "open"
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
	// Kind is KindPlace (default), KindExplore or KindSession.
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
	// submission field only: the daemon stores the files once, in the
	// job's design/, and spools, echoes and serves the manifest without
	// them.
	Bookshelf map[string]string `json:"bookshelf,omitempty"`

	// MaxIters caps global-placement iterations (0 = engine default).
	MaxIters int `json:"max_iters,omitempty"`
	// Workers caps the job's data parallelism (0 = GOMAXPROCS). For
	// explore jobs it instead caps how many relevance groups
	// evaluate concurrently (1 = the fully serial baseline).
	Workers int `json:"workers,omitempty"`
	// Route appends the evaluation-routing stage to place jobs.
	Route bool `json:"route,omitempty"`
	// Strategy, when non-empty, is a padding.Strategy JSON document (the
	// puffer explore -out format); zero-valued fields keep their defaults.
	Strategy json.RawMessage `json:"strategy,omitempty"`
	// Budget is the exploration trial budget for explore jobs (default 8).
	Budget int `json:"budget,omitempty"`

	// TimeoutSec is the per-job deadline in seconds, enforced through the
	// pipeline's context support (0 = the server's default, if any). The
	// clock restarts when a parked job resumes.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
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
	case KindPlace, KindExplore, KindSession:
	default:
		return fmt.Errorf("unknown job kind %q (want %q, %q or %q)", s.Kind, KindPlace, KindExplore, KindSession)
	}
	if (s.Profile == "") == (len(s.Bookshelf) == 0) {
		return fmt.Errorf("exactly one of profile and bookshelf must be set")
	}
	if s.Profile != "" {
		if _, err := synth.ProfileByName(s.Profile); err != nil {
			return err
		}
	}
	// A Bookshelf upload is bare file names with exactly one .aux.
	aux := 0
	for name := range s.Bookshelf {
		if !bareName(name) {
			return fmt.Errorf("bookshelf file name %q must be a bare file name", name)
		}
		if strings.HasSuffix(name, ".aux") {
			aux++
		}
	}
	if len(s.Bookshelf) > 0 && aux != 1 {
		return fmt.Errorf("bookshelf upload needs exactly one .aux file, got %d", aux)
	}
	// A strategy document must decode the way the run will decode it.
	if len(s.Strategy) > 0 {
		if _, err := padding.DecodeStrategy(s.Strategy); err != nil {
			return fmt.Errorf("decode strategy: %v", err)
		}
	}
	if s.Scale < 0 || s.MaxIters < 0 || s.Workers < 0 || s.Budget < 0 || s.TimeoutSec < 0 {
		return fmt.Errorf("negative scale/max_iters/workers/budget/timeout_sec")
	}
	return nil
}

// designName names a design source in list rows and logs: the profile, or
// the name of the .aux file among the upload spooled under dir/design
// (admission allows exactly one); "" when dir/design holds no .aux.
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
// manifest and served by the result endpoint. A session's is its latest
// placement (the base placement, then each applied delta's), kept when the
// session is canceled. The full run report, trace,
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
	// Attempts counts claims (1 on first run; +1 per park/crash resume).
	Attempts int `json:"attempts"`
	// TraceParent is the W3C traceparent header the submission carried, if
	// any; the worker adopts it so the job's trace joins the client's.
	TraceParent string `json:"traceparent,omitempty"`

	// Tenant is the queue lane the job waits in (X-Puffer-Tenant); empty
	// when the header is absent.
	Tenant string `json:"tenant,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Result *JobResult `json:"result,omitempty"`
}
