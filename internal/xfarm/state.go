// Package xfarm is the distributed exploration farm: a durable, resumable
// controller that drives the TPE sampler of internal/explore while every
// objective evaluation runs as a first-class place job on the pufferd
// fleet (paper Sec. III-C, Algorithms 2–3, scaled out).
//
// The controller itself holds no placement code. It talks to the fleet
// through the Backend interface, checkpoints its progress as a
// `puffer/explore-state/v1` manifest after every observation, and on
// restart replays finished trials from the checkpoint — resubmitted
// trials dedupe through the content-addressed result index, so a resumed
// exploration re-runs zero completed placements.
package xfarm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"puffer/internal/cas"
)

// StateFormat identifies a spooled exploration-state manifest.
const StateFormat = "puffer/explore-state/v1"

// Trial states inside a manifest.
const (
	TrialSubmitted = "submitted" // dispatched, awaiting a terminal outcome
	TrialDone      = "done"      // evaluated; Score is the objective value
	TrialCanceled  = "canceled"  // early-stopped mid-flight (dominated)
	TrialFailed    = "failed"    // placement failed; scored infeasible
)

// RangeRec is a serialized parameter search interval.
type RangeRec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// TrialRecord is one trial's durable identity and outcome. (Round, Group,
// Index) is the deterministic schedule identity from explore.Trial; Seq is
// the submission order of this controller run (informational — resume
// matches on the schedule identity, never on Seq).
type TrialRecord struct {
	Seq          int                `json:"seq"`
	Round        int                `json:"round"`
	Group        string             `json:"group,omitempty"`
	Index        int                `json:"index"`
	X            map[string]float64 `json:"x"`
	JobID        string             `json:"job_id,omitempty"`
	State        string             `json:"state"`
	Score        float64            `json:"score,omitempty"`
	CacheHit     bool               `json:"cache_hit,omitempty"`
	EarlyStopped bool               `json:"early_stopped,omitempty"`
}

// State is the controller's full durable state. It is rewritten atomically
// after every submission and every observation, so a SIGKILL at any point
// loses at most the outcome of trials still in flight — and those either
// finish on their workers (the resume re-attaches by job ID) or resubmit
// and hit the result cache.
type State struct {
	Format       string `json:"format"`
	Job          string `json:"job,omitempty"`
	DesignDigest string `json:"design_digest,omitempty"`
	Seed         int64  `json:"seed"`
	Budget       int    `json:"budget"`
	// Attempts counts controller starts: 1 for a fresh exploration,
	// +1 per resume (the manifest's provenance trail).
	Attempts  int                 `json:"attempts"`
	EarlyStop bool                `json:"early_stop,omitempty"`
	Trials    []TrialRecord       `json:"trials"`
	Ranges    map[string]RangeRec `json:"ranges,omitempty"`
	Best      map[string]float64  `json:"best,omitempty"`
	BestScore float64             `json:"best_score,omitempty"`
	UpdatedAt time.Time           `json:"updated_at"`
}

// Encode renders the state as indented JSON (the spooled artifact form).
func (s *State) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseState strictly parses a `puffer/explore-state/v1` manifest.
// Truncated documents, foreign formats, unknown fields, trailing data,
// bad enums, and duplicate trial identities are all rejected — a resumed
// controller must never trust a half-written or alien file.
func ParseState(data []byte) (*State, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("xfarm: state is empty")
	}
	st := &State{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("xfarm: decode state (truncated or not an explore state?): %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("xfarm: state has trailing data")
	}
	if st.Format != StateFormat {
		return nil, fmt.Errorf("xfarm: state format %q, want %q", st.Format, StateFormat)
	}
	if st.DesignDigest != "" && !cas.Digest(st.DesignDigest).Valid() {
		return nil, fmt.Errorf("xfarm: invalid design digest %q", st.DesignDigest)
	}
	if st.Budget < 0 {
		return nil, fmt.Errorf("xfarm: negative budget %d", st.Budget)
	}
	if st.Attempts < 0 {
		return nil, fmt.Errorf("xfarm: negative attempts %d", st.Attempts)
	}
	seen := make(map[trialKey]struct{}, len(st.Trials))
	for i := range st.Trials {
		t := &st.Trials[i]
		switch t.State {
		case TrialSubmitted, TrialDone, TrialCanceled, TrialFailed:
		default:
			return nil, fmt.Errorf("xfarm: trial %d: unknown state %q", i, t.State)
		}
		if t.Round < 0 || t.Index < 0 {
			return nil, fmt.Errorf("xfarm: trial %d: negative identity (round %d, index %d)", i, t.Round, t.Index)
		}
		if t.Round == 0 && t.Group != "" {
			return nil, fmt.Errorf("xfarm: trial %d: global-pass trial names group %q", i, t.Group)
		}
		if t.Round > 0 && t.Group == "" {
			return nil, fmt.Errorf("xfarm: trial %d: round-%d trial without a group", i, t.Round)
		}
		if len(t.X) == 0 {
			return nil, fmt.Errorf("xfarm: trial %d: empty assignment", i)
		}
		k := trialKey{t.Round, t.Group, t.Index}
		if _, dup := seen[k]; dup {
			return nil, fmt.Errorf("xfarm: duplicate trial identity (round %d, group %q, index %d)", t.Round, t.Group, t.Index)
		}
		seen[k] = struct{}{}
	}
	for name, r := range st.Ranges {
		if r.Hi < r.Lo {
			return nil, fmt.Errorf("xfarm: range %q inverted [%g, %g]", name, r.Lo, r.Hi)
		}
	}
	return st, nil
}

// trialKey is the deterministic schedule identity a resume matches on.
type trialKey struct {
	round int
	group string
	index int
}
