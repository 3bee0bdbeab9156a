package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/internal/padding"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// runLocal executes one claimed job in process — through the staged
// pipeline with per-stage checkpoints in the spool, the in-process
// explorer, or a session's base placement: telemetry setup, kind
// dispatch, artifact spooling, outcome classification.
func (s *Server) runLocal(jobCtx context.Context, j *Job) Outcome {
	m, id := j.M, j.M.ID
	timeout := time.Duration(m.Spec.TimeoutSec * float64(time.Second))
	if timeout == 0 {
		timeout = s.cfg.DefaultJobTimeout
	}
	runCtx := jobCtx
	if timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithDeadlineCause(jobCtx, time.Now().Add(timeout), errJobDeadline)
		defer tcancel()
	}

	// Adopting the submission's trace context puts the job's span tree (and
	// under it the whole pipeline) into the client's trace, so a merged
	// Chrome trace shows client request, queue wait, and shard work as one
	// tree under one trace ID.
	tel := openTelemetry(s.spool.JobDir(id), j.Hub, m.TraceParent)

	// The job span opens retroactively at submission, so the trace shows
	// the full client-observed wall; the queue wait (submission → claim)
	// is its first child.
	jobSpan := tel.rec.Tracer().StartSpanAt("serve.job", m.SubmittedAt)
	jobSpan.SetArg("job", id)
	jobSpan.SetArg("kind", m.Spec.Kind)
	jobSpan.SetArg("attempt", m.Attempts)
	var queueWait time.Duration
	if m.StartedAt != nil && m.StartedAt.After(m.SubmittedAt) {
		queueWait = m.StartedAt.Sub(m.SubmittedAt)
	}
	jobSpan.RecordChild("serve.queue_wait", m.SubmittedAt, queueWait)
	runCtx = obs.ContextWith(runCtx, jobSpan)

	var (
		result *JobResult
		err    error
	)
	switch m.Spec.Kind {
	case KindExplore:
		result, err = s.execExplore(runCtx, m, j.Hub, tel.rec)
	case KindSession:
		result, err = s.execSession(runCtx, m, j.Hub, tel)
	default:
		result, err = s.execPlace(runCtx, m, j.Hub, tel.rec)
	}
	jobSpan.End()
	if m.Spec.Kind == KindSession && err == nil {
		// The session keeps its telemetry open for the deltas.
		return Outcome{State: StateOpen, Result: result}
	}

	// Spool the telemetry regardless of outcome — a parked or failed job's
	// partial trace and metrics are exactly what the operator wants to see.
	if werr := tel.close(); werr != nil {
		s.log.ErrorContext(runCtx, "spool job telemetry", "error", werr)
	}
	state, errMsg := classifyOutcome(runCtx, err)
	return Outcome{State: state, Error: errMsg, Result: result}
}

// runTelemetry is the telemetry of one job attempt, or of a session's
// warm period (its base placement or rehydrate, and the deltas after it): an isolated registry whose samples stream to the run's hub and
// to the spooled metrics.jsonl, and a tracer for the trace.json artifact.
type runTelemetry struct {
	rec     *obs.Recorder
	dir     string
	metrics *os.File // nil when metrics.jsonl could not be opened
}

// openTelemetry starts a run's telemetry spooled into dir. The tracer
// joins traceparent's trace when it parses.
func openTelemetry(dir string, hub *Hub, traceparent string) *runTelemetry {
	t := &runTelemetry{dir: dir}
	sinks := []obs.Sink{hubSink{hub}}
	f, err := os.OpenFile(filepath.Join(dir, "metrics.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		t.metrics = f
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	tc, _ := obs.ParseTraceparent(traceparent)
	t.rec = obs.NewRecorder(obs.NewTracerWith(tc), obs.NewRegistry(sinks...))
	return t
}

// close spools trace.json (if any span was recorded) and flushes and
// closes the metric stream.
func (t *runTelemetry) close() error {
	var err error
	if tr := t.rec.Tracer(); tr.Len() > 0 {
		err = tr.WriteFile(filepath.Join(t.dir, "trace.json"))
	}
	if t.metrics != nil {
		err = errors.Join(err, t.rec.Registry().Flush(), t.metrics.Close())
	}
	return err
}

// classifyOutcome maps an execution error to the job's next state using
// the context's cancellation cause: drain-park, client cancel, deadline,
// or a genuine engine failure.
func classifyOutcome(ctx context.Context, err error) (JobState, string) {
	if err == nil {
		return StateDone, ""
	}
	if errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, ErrParked):
			return StateParked, ""
		case errors.Is(cause, ErrCanceled):
			return StateCanceled, ErrCanceled.Error()
		case errors.Is(cause, errJobDeadline):
			return StateFailed, errJobDeadline.Error()
		}
	}
	return StateFailed, err.Error()
}

// activeCount returns how many jobs are currently cancelable: running, or
// a session applying a delta.
func (s *Server) activeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.jobs {
		if a.cancel != nil {
			n++
		}
	}
	return n
}

// jobFlow builds a job's design and flow configuration. Both are
// deterministic in the spec, so a resumed job or a rehydrated session runs
// under exactly the configuration its checkpoint or snapshot was captured
// under, and eco.Restore verifies the design by hash.
func (s *Server) jobFlow(m *Manifest, hub *Hub, rec *obs.Recorder) (*netlist.Design, pipeline.Config, error) {
	s.reg.Counter("serve.design_parses").Inc()
	d, err := loadDesign(m.Spec.Profile, m.Spec.Scale, m.Spec.Seed, s.spool.JobDir(m.ID))
	if err != nil {
		return nil, pipeline.Config{}, fmt.Errorf("build design: %w", err)
	}
	cfg, err := flowConfig(m.Spec.Seed, m.Spec.MaxIters, m.Spec.Workers, m.Spec.Strategy, rec, hub)
	return d, cfg, err
}

// loadDesign materializes a job's design: the synthetic profile generated
// from scale and seed, or the upload spooled under dir/design. Both
// rebuild bit-identically, which job resume and session rehydration rely
// on.
func loadDesign(profile string, scale int, seed int64, dir string) (*netlist.Design, error) {
	if profile != "" {
		p, err := synth.ProfileByName(profile)
		if err != nil {
			return nil, err
		}
		return synth.Generate(p, scale, seed), nil
	}
	aux := designName(profile, dir)
	if aux == "" {
		return nil, fmt.Errorf("no uploaded .aux under %s", filepath.Join(dir, "design"))
	}
	return bookshelf.Parse(filepath.Join(dir, "design", aux))
}

// flowConfig builds the pipeline configuration of a job from its spec. It
// must be deterministic in its inputs: a rehydrated session rebuilds the
// exact configuration its snapshot was captured under.
func flowConfig(seed int64, maxIters, workers int, strategy json.RawMessage, rec *obs.Recorder, hub *Hub) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Place.Seed = seed
	if maxIters > 0 {
		cfg.Place.MaxIters = maxIters
	}
	cfg.Workers = workers
	if len(strategy) > 0 {
		st, err := padding.DecodeStrategy(strategy)
		if err != nil {
			return cfg, fmt.Errorf("decode strategy: %w", err)
		}
		cfg.Strategy = st
	}
	cfg.Obs = rec
	cfg.Logf = func(format string, args ...any) {
		hub.Publish(Event{Type: "log", Line: fmt.Sprintf(format, args...)})
	}
	return cfg, nil
}

// execPlace runs (or resumes) a placement job through the staged pipeline,
// checkpointing into the spool after every stage.
func (s *Server) execPlace(ctx context.Context, m *Manifest, hub *Hub, rec *obs.Recorder) (*JobResult, error) {
	d, cfg, err := s.jobFlow(m, hub, rec)
	if err != nil {
		return nil, err
	}
	rc, err := pipeline.NewRunContext(d, cfg)
	if err != nil {
		return nil, err
	}
	stages := pipeline.Default()
	if m.Spec.Route {
		stages = append(stages, pipeline.Route())
	}
	pl := pipeline.New(stages...)
	id := m.ID
	pl.OnStage = func(st pipeline.StageStats, err error) {
		status := "done"
		switch {
		case errors.Is(err, pipeline.ErrCanceled):
			status = "canceled"
		case err != nil:
			status = "failed"
		}
		hub.Publish(Event{Type: "stage", Stage: st.Name, StageStatus: status,
			Iters: st.Iters, WallMS: float64(st.Wall) / 1e6})
	}
	pl.Checkpointer = func(cp *pipeline.Checkpoint) error {
		if err := cp.Save(s.spool.CheckpointPath(id)); err != nil {
			return err
		}
		_, err := s.spool.Update(id, func(mm *Manifest) error {
			mm.Stage = cp.Stage
			return nil
		})
		return err
	}

	// Resume from the spooled checkpoint when one exists; a corrupt or
	// mismatched checkpoint demotes the job to a fresh run rather than
	// failing it (the design source is still authoritative).
	var runErr error
	ckptPath := s.spool.CheckpointPath(id)
	if cp, lerr := pipeline.LoadCheckpoint(ckptPath); lerr == nil {
		hub.Publish(Event{Type: "log", Line: fmt.Sprintf("resuming from checkpoint after stage %q", cp.Stage)})
		runErr = pl.Resume(ctx, rc, cp)
		if runErr != nil && !errors.Is(runErr, pipeline.ErrCanceled) {
			hub.Publish(Event{Type: "log", Line: fmt.Sprintf("resume failed (%v); restarting from scratch", runErr)})
			os.Remove(ckptPath)
			if d, cfg, err = s.jobFlow(m, hub, rec); err != nil {
				return nil, err
			}
			if rc, err = pipeline.NewRunContext(d, cfg); err != nil {
				return nil, err
			}
			runErr = pl.Run(ctx, rc)
		}
	} else {
		if !os.IsNotExist(lerr) {
			hub.Publish(Event{Type: "log", Line: fmt.Sprintf("ignoring unreadable checkpoint: %v", lerr)})
		}
		runErr = pl.Run(ctx, rc)
	}
	record, err := pipeline.NewRecord(pipeline.PUFFER, rc)
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	if runErr != nil {
		// A parked (or failed) attempt still reports what it did: the
		// partial result lands in the manifest, and the next attempt merges
		// it so a resumed job's statistics stay cumulative.
		return buildResult(record, m.Result), runErr
	}

	// Artifacts of a completed job: the run record and the placed design
	// in Bookshelf form.
	if rp, perr := s.spool.ArtifactPath(id, "report.json"); perr == nil {
		if werr := record.Save(rp); werr != nil {
			s.log.ErrorContext(ctx, "write report artifact", "job", id, "error", werr)
		}
	}
	if _, werr := bookshelf.Write(d, s.spool.JobDir(id), "placed"); werr != nil {
		s.log.ErrorContext(ctx, "write placed design", "job", id, "error", werr)
	}
	return buildResult(record, m.Result), nil
}

// buildResult projects the attempt's run record onto the manifest's
// JobResult, folding in the spooled result of prior interrupted attempts.
// pipeline.Resume replays positions/padding/weights but not run
// statistics, so without the merge a parked-then-resumed job would report
// gp_iters=0 and only the final attempt's runtime. Runtime accumulates
// across attempts; GP and padding counters are taken from whichever
// attempt actually ran those stages (a resume past a completed stage
// leaves this attempt's counter at zero).
func buildResult(rec *pipeline.Record, prior *JobResult) *JobResult {
	f := rec.Final
	out := &JobResult{
		HPWL:        f.HPWL,
		GPIters:     f.GPIters,
		GPOverflow:  f.GPOverflow,
		PaddingRuns: f.PaddingRuns,
		RuntimeMS:   f.RuntimeMS,
	}
	if f.Routed != nil {
		out.HOF, out.VOF, out.RoutedWL = f.HOF, f.VOF, f.WL
	}
	if prior != nil {
		out.RuntimeMS += prior.RuntimeMS
		if out.GPIters == 0 {
			out.GPIters, out.GPOverflow = prior.GPIters, prior.GPOverflow
		}
		if out.PaddingRuns == 0 {
			out.PaddingRuns = prior.PaddingRuns
		}
	}
	return out
}

// execExplore runs a strategy-exploration job in process and spools its
// best observed strategy, the one whose score is the job's best_score (as
// `puffer explore -out` writes it). Exploration carries no resumable
// design state, so a re-admitted exploration starts over.
func (s *Server) execExplore(ctx context.Context, m *Manifest, hub *Hub, rec *obs.Recorder) (*JobResult, error) {
	d, cfg, err := s.jobFlow(m, hub, rec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, best, trials, err := puffer.ExploreStrategyOpts(ctx, d, cfg.Place, puffer.ExploreOptions{
		Budget:  m.Spec.Budget,
		Seed:    m.Spec.Seed,
		Workers: m.Spec.Workers,
		Logf:    cfg.Logf,
		Obs:     rec,
	})
	if err != nil {
		return nil, err
	}
	if sp, perr := s.spool.ArtifactPath(m.ID, "strategy.json"); perr == nil {
		if werr := puffer.SaveStrategy(sp, best); werr != nil {
			s.log.ErrorContext(ctx, "write strategy artifact", "job", m.ID, "error", werr)
		}
	}
	return &JobResult{
		Trials:    trials,
		BestScore: rec.Registry().Gauge("explore.best_score").Value(),
		RuntimeMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// listArtifacts returns the downloadable files present in the job dir.
func (s *Server) listArtifacts(id string) []string {
	entries, err := os.ReadDir(s.spool.JobDir(id))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || e.Name() == "manifest.json" {
			continue
		}
		out = append(out, e.Name())
	}
	return out
}
