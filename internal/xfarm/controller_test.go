package xfarm

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"puffer/internal/explore"
)

// testParams is a small two-group space mirroring the shape of the real
// strategy space (continuous + log + int kinds).
func testParams() []explore.Param {
	return []explore.Param{
		{Name: "beta", Kind: explore.LogUniform, Lo: 0.25, Hi: 4, Group: "formula"},
		{Name: "mu", Kind: explore.Uniform, Lo: 0, Hi: 1, Group: "formula"},
		{Name: "tau", Kind: explore.Uniform, Lo: 0.1, Hi: 0.9, Group: "trigger"},
		{Name: "cooldown", Kind: explore.IntUniform, Lo: 1, Hi: 8, Group: "trigger"},
	}
}

// testObjective is a deterministic synthetic objective with a unique basin.
func testObjective(x explore.Assignment) float64 {
	return math.Abs(math.Log(x["beta"]/1.3)) + (x["mu"]-0.4)*(x["mu"]-0.4) +
		math.Abs(x["tau"]-0.55) + math.Abs(x["cooldown"]-3)/10
}

// fakeJob is one "placement" on the fake fleet.
type fakeJob struct {
	id   string
	t    explore.Trial
	done chan struct{}

	mu       sync.Mutex
	out      TrialOutcome
	canceled bool
}

func (j *fakeJob) finishOnce(out TrialOutcome) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return false
	default:
	}
	j.out = out
	close(j.done)
	return true
}

// fakeFleet is an in-memory Backend: a bounded worker pool with a
// content-addressed result cache, surviving controller restarts the way
// the real coordinator's spool + CAS do.
type fakeFleet struct {
	workers int
	eval    func(explore.Assignment) float64

	mu         sync.Mutex
	queue      chan *fakeJob
	jobs       map[string]*fakeJob
	cache      map[string]TrialOutcome // assignment fingerprint -> outcome
	n          int
	placements int // objective evaluations actually run (cache misses)

	// watch hooks for the early-stop test (nil = no samples).
	watch func(ctx context.Context, j *fakeJob, fn func(int, float64))
	// hold, when set, makes every job except the first block until
	// canceled (early-stop test).
	hold bool
}

func newFakeFleet(workers int, eval func(explore.Assignment) float64) *fakeFleet {
	f := &fakeFleet{
		workers: workers,
		eval:    eval,
		queue:   make(chan *fakeJob, 1024),
		jobs:    map[string]*fakeJob{},
		cache:   map[string]TrialOutcome{},
	}
	for w := 0; w < workers; w++ {
		go f.worker(w)
	}
	return f
}

func fingerprint(x explore.Assignment) string {
	keys := make([]string, 0, len(x))
	for k := range x {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		b, _ := json.Marshal(x[k])
		parts[i] = k + "=" + string(b)
	}
	b, _ := json.Marshal(parts)
	return string(b)
}

func (f *fakeFleet) worker(w int) {
	for j := range f.queue {
		j.mu.Lock()
		canceled := j.canceled
		j.mu.Unlock()
		if canceled {
			j.finishOnce(TrialOutcome{Canceled: true})
			continue
		}
		if f.hold && j.id != "job-1" {
			// Block until the controller cancels us (early-stop path).
			<-j.done
			continue
		}
		// A touch of worker-dependent latency so completion order differs
		// from submission order across runs.
		time.Sleep(time.Duration((w*7+len(j.id))%5) * time.Millisecond)
		score := f.eval(j.t.X)
		f.mu.Lock()
		f.placements++
		f.cache[fingerprint(j.t.X)] = TrialOutcome{Score: score}
		f.mu.Unlock()
		j.finishOnce(TrialOutcome{Score: score})
	}
}

func (f *fakeFleet) Submit(ctx context.Context, t explore.Trial) (string, error) {
	f.mu.Lock()
	f.n++
	id := fmt.Sprintf("job-%d", f.n)
	j := &fakeJob{id: id, t: t, done: make(chan struct{})}
	f.jobs[id] = j
	if out, ok := f.cache[fingerprint(t.X)]; ok {
		f.mu.Unlock()
		out.CacheHit = true
		j.finishOnce(out)
		return id, nil
	}
	f.mu.Unlock()
	f.queue <- j
	return id, nil
}

func (f *fakeFleet) Await(ctx context.Context, jobID string) (TrialOutcome, error) {
	f.mu.Lock()
	j, ok := f.jobs[jobID]
	f.mu.Unlock()
	if !ok {
		return TrialOutcome{}, fmt.Errorf("no such job %s", jobID)
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.out, nil
	case <-ctx.Done():
		return TrialOutcome{}, ctx.Err()
	}
}

func (f *fakeFleet) Cancel(jobID, reason string) error {
	f.mu.Lock()
	j, ok := f.jobs[jobID]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("no such job %s", jobID)
	}
	j.mu.Lock()
	j.canceled = true
	j.mu.Unlock()
	j.finishOnce(TrialOutcome{Canceled: true})
	return nil
}

func (f *fakeFleet) WatchOverflow(ctx context.Context, jobID string, fn func(int, float64)) {
	if f.watch == nil {
		return
	}
	f.mu.Lock()
	j, ok := f.jobs[jobID]
	f.mu.Unlock()
	if !ok {
		return
	}
	f.watch(ctx, j, fn)
}

// scheduleOf flattens a state's trials into a canonical identity->assignment
// map for cross-run comparison.
func scheduleOf(t *testing.T, st *State) map[string]string {
	t.Helper()
	out := make(map[string]string, len(st.Trials))
	for _, tr := range st.Trials {
		key := fmt.Sprintf("r%d/%s/%d", tr.Round, tr.Group, tr.Index)
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate trial identity %s", key)
		}
		out[key] = fingerprint(tr.X)
	}
	return out
}

// TestControllerDeterminism is the ISSUE's determinism contract: same seed
// and budget => the distributed controller proposes the same trials and
// lands on the same final strategy as the in-process explorer, for any
// worker count and any completion order.
func TestControllerDeterminism(t *testing.T) {
	const seed, budget = 42, 3
	params := testParams()

	// In-process reference: the plain explorer, exactly as
	// ExploreStrategyOpts configures it.
	ref := &explore.Explorer{
		Params:    params,
		Eval:      testObjective,
		TimeLimit: budget,
		EarlyStop: maxInt(budget/3, 5),
		Rounds:    2,
		Parallel:  true,
		Seed:      seed,
	}
	refFinal, refBest := ref.Run()

	var schedules []map[string]string
	for _, workers := range []int{1, 4} {
		fleet := newFakeFleet(workers, testObjective)
		res, err := Run(context.Background(), Config{
			Params:  params,
			Budget:  budget,
			Seed:    seed,
			Backend: fleet,
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Final) != len(refFinal) {
			t.Fatalf("workers=%d: final size %d != %d", workers, len(res.Final), len(refFinal))
		}
		for k, v := range refFinal {
			if res.Final[k] != v {
				t.Errorf("workers=%d: final[%s] = %v, want %v", workers, k, res.Final[k], v)
			}
		}
		for k, v := range refBest {
			if res.Best[k] != v {
				t.Errorf("workers=%d: best[%s] = %v, want %v", workers, k, res.Best[k], v)
			}
		}
		wantTrials := budget + 2*2*budget // global + rounds*groups*budget
		if res.Trials != wantTrials {
			t.Errorf("workers=%d: %d trials, want %d", workers, res.Trials, wantTrials)
		}
		schedules = append(schedules, scheduleOf(t, res.State))
	}
	for i := 1; i < len(schedules); i++ {
		if len(schedules[i]) != len(schedules[0]) {
			t.Fatalf("schedule %d has %d trials, schedule 0 has %d", i, len(schedules[i]), len(schedules[0]))
		}
		for k, v := range schedules[0] {
			if schedules[i][k] != v {
				t.Errorf("schedule diverged at %s:\n  %s\n  vs %s", k, v, schedules[i][k])
			}
		}
	}
}

// TestControllerResume kills a controller mid-exploration and resumes from
// its last checkpoint: the fleet must evaluate every unique trial exactly
// once across both attempts (completed trials come back as cache hits).
func TestControllerResume(t *testing.T) {
	const seed, budget = 7, 2
	params := testParams()
	fleet := newFakeFleet(2, testObjective)

	var (
		mu    sync.Mutex
		last  []byte
		kills int
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	checkpoint := func(st *State) error {
		data, err := st.Encode()
		if err != nil {
			return err
		}
		done := 0
		for _, tr := range st.Trials {
			if tr.State != TrialSubmitted {
				done++
			}
		}
		mu.Lock()
		last = data
		mu.Unlock()
		if done >= 4 {
			kills++
			cancel() // SIGKILL stand-in: the controller dies mid-flight
		}
		return nil
	}
	_, err := Run(ctx, Config{
		Params: params, Budget: budget, Seed: seed,
		Backend: fleet, Checkpoint: checkpoint,
	}, nil)
	if err == nil {
		t.Fatal("first attempt was not interrupted")
	}
	mu.Lock()
	prevData := append([]byte(nil), last...)
	mu.Unlock()
	prev, err := ParseState(prevData)
	if err != nil {
		t.Fatalf("checkpoint unparseable: %v", err)
	}
	doneBefore := 0
	for _, tr := range prev.Trials {
		if tr.State == TrialDone {
			doneBefore++
		}
	}
	if doneBefore == 0 {
		t.Fatal("checkpoint recorded no completed trials")
	}

	res, err := Run(context.Background(), Config{
		Params: params, Budget: budget, Seed: seed,
		Backend: fleet,
	}, prev)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	wantTrials := budget + 2*2*budget
	if res.Trials != wantTrials {
		t.Fatalf("resume made %d trials, want %d", res.Trials, wantTrials)
	}
	if res.State.Attempts != prev.Attempts+1 {
		t.Errorf("attempts = %d, want %d", res.State.Attempts, prev.Attempts+1)
	}
	if res.CacheHits+res.Replayed < doneBefore {
		t.Errorf("cache hits (%d) + replays (%d) < completed-before-kill (%d): finished trials re-ran",
			res.CacheHits, res.Replayed, doneBefore)
	}
	// The hard guarantee: no placement ever ran twice.
	fleet.mu.Lock()
	placements := fleet.placements
	fleet.mu.Unlock()
	if placements > wantTrials {
		t.Errorf("fleet ran %d placements for %d unique trials: resume re-ran work", placements, wantTrials)
	}
}

// TestControllerEarlyStop verifies dominated trials are canceled mid-flight
// once a finished competitor sets the overflow envelope.
func TestControllerEarlyStop(t *testing.T) {
	const seed, budget = 3, 2
	params := testParams()
	fleet := newFakeFleet(2, testObjective)
	fleet.hold = true
	fleet.watch = func(ctx context.Context, j *fakeJob, fn func(int, float64)) {
		if j.id == "job-1" {
			// The leader streams a strong curve, then finishes.
			fn(10, 0.1)
			return
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-j.done:
				return
			case <-time.After(time.Millisecond):
				fn(10, 1.0) // dominated once the leader's 0.1 lands
			}
		}
	}
	// job-1 (the global pass's first trial) must evaluate for real so the
	// envelope has one completed competitor.
	res, err := Run(context.Background(), Config{
		Params: params, Budget: budget, Seed: seed,
		Backend: fleet, EarlyStop: true, MinStep: 5,
	}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantTrials := budget + 2*2*budget
	if res.Trials != wantTrials {
		t.Fatalf("early stop changed the trial count: %d, want %d", res.Trials, wantTrials)
	}
	if res.Canceled == 0 {
		t.Fatal("no trial was early-stopped")
	}
	for _, tr := range res.State.Trials {
		if tr.State == TrialCanceled && !tr.EarlyStopped {
			t.Errorf("canceled trial %s/%d lost its early-stop marker", tr.Group, tr.Index)
		}
	}
}
