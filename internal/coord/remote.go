package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"puffer/internal/cas"
	"puffer/internal/client"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// watchFailLimit is how many consecutive failed status reads an attempt
// tolerates before treating the node as gone (backup for the heartbeat
// monitor — a node can heartbeat while its job API wedges).
const watchFailLimit = 5

// attempt is one run of a job on one worker.
type attempt struct {
	c        *Server
	j        *serve.Job
	node     string
	cl       *client.Client
	remoteID string
	tracer   *obs.Tracer // stitches client → coordinator → worker spans into one trace
	span     *obs.Span   // the open coord.job root span
}

// Run is the remote backend: send the job to the least-loaded eligible
// worker (or re-attach to the one its manifest names), relay the worker's
// progress into the job's hub, mirror its checkpoints for failover, and
// bring result and artifacts home. A refused dispatch, a lost or draining
// worker all come back as "retry elsewhere".
func (c *Server) Run(ctx context.Context, j *serve.Job) serve.Outcome {
	m := j.M
	// The attempt outlives a client cancel (which is forwarded, then the
	// worker's verdict awaited) but not a drain or an expired heartbeat.
	actx, cancel := context.WithCancelCause(context.WithoutCancel(ctx))
	defer cancel(nil)

	var tc obs.TraceContext
	if m.TraceParent != "" {
		tc, _ = obs.ParseTraceparent(m.TraceParent)
	}
	a := &attempt{c: c, j: j, node: m.Node, remoteID: m.RemoteID, tracer: obs.NewTracerWith(tc)}
	a.span = a.tracer.StartSpanAt("coord.job", m.SubmittedAt)
	a.span.SetArg("job", m.ID)

	c.mu.Lock()
	n := c.nodes[m.Node]
	if a.remoteID == "" {
		n = c.pickNodeLocked(time.Now())
	}
	if n != nil {
		a.node, a.cl = n.mf.ID, n.cl
		n.jobs[m.ID] = cancel
	}
	c.mu.Unlock()
	defer c.release(a.node, m.ID)

	if a.remoteID != "" {
		if a.cl == nil { // re-attach before the node re-registered
			a.cl = client.New(m.NodeAddr, c.http)
		}
	} else if n == nil {
		return a.retry(ctx, "no eligible worker")
	} else if err := a.dispatch(actx, n.mf.Addr); err != nil {
		c.log.Warn("dispatch failed", "job", m.ID, "node", a.node, "error", err)
		c.backoff(a.node, time.Second)
		return a.retry(ctx, err.Error())
	}

	stop := context.AfterFunc(ctx, func() {
		if !errors.Is(context.Cause(ctx), serve.ErrCanceled) {
			cancel(context.Cause(ctx))
			return
		}
		fctx, fcancel := context.WithTimeout(actx, 10*time.Second)
		defer fcancel()
		if _, err := a.cl.Cancel(fctx, a.remoteID); err != nil {
			c.log.Warn("forwarding cancel failed", "job", m.ID, "node", a.node, "error", err)
		}
	})
	defer stop()
	return a.watch(ctx, actx)
}

// release takes the job off its node's in-flight set; the freed room may
// unblock Acquire.
func (c *Server) release(node, job string) {
	c.mu.Lock()
	if n, ok := c.nodes[node]; ok {
		delete(n.jobs, job)
	}
	c.mu.Unlock()
	c.wake()
}

// retry hands the job back to the core for another worker — unless the
// client canceled it meanwhile, which a fresh attempt would forget.
func (a *attempt) retry(ctx context.Context, why string) serve.Outcome {
	if errors.Is(context.Cause(ctx), serve.ErrCanceled) {
		return serve.Outcome{State: serve.StateCanceled, Error: serve.ErrCanceled.Error()}
	}
	return serve.Outcome{State: serve.StateQueued, Error: why}
}

// dispatch submits the job to the picked worker and records where it went.
// The remote spec is the original submission with the design reconstructed
// from the CAS blob (uploads are stored once, not copied into every
// manifest) and any mirrored checkpoint embedded, so a failover resumes
// mid-flow.
func (a *attempt) dispatch(ctx context.Context, addr string) error {
	c, m := a.c, a.j.M
	t0 := time.Now()
	spec := m.Spec
	if blobBacked(m) {
		blob, err := c.store.Blob(cas.Digest(m.DesignDigest))
		if err != nil {
			return fmt.Errorf("design blob %s: %w", m.DesignDigest, err)
		}
		if spec.Bookshelf, err = cas.DecodeBookshelf(blob); err != nil {
			return err
		}
	}
	if ckpt, err := os.ReadFile(c.Spool().CheckpointPath(m.ID)); err == nil && len(ckpt) > 0 {
		spec.Checkpoint = ckpt
	}
	// The worker's tracer parents under this dispatch span, which itself
	// carries the client's trace ID — one merged trace.
	dspan := a.span.Child("coord.dispatch")
	dspan.SetArg("node", a.node)
	var traceparent string
	if tc := dspan.TraceContext(); tc.Valid() {
		traceparent = tc.Traceparent()
	}
	remote, err := a.cl.Submit(ctx, spec, client.SubmitOptions{Traceparent: traceparent})
	dspan.End()
	if err != nil {
		var se *client.StatusError
		if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
			c.backoff(a.node, max(se.RetryAfter, 2*time.Second))
		}
		return err
	}
	c.hDispatch.ObserveSince(t0)
	a.remoteID = remote.ID
	if _, err := c.Spool().Update(m.ID, func(mm *serve.Manifest) error {
		mm.Node, mm.NodeAddr, mm.RemoteID = a.node, addr, remote.ID
		return nil
	}); err != nil {
		return err
	}
	c.Registry().Counter("coord.jobs_dispatched_total").Inc()
	c.log.Info("job dispatched", "job", m.ID, "node", a.node, "remote", remote.ID, "attempt", m.Attempts)
	return nil
}

// watch relays the worker's event stream until the worker reaches a
// verdict. Stage, sample and log events pass into the job's hub (which
// stamps its own Seq, monotonic across attempts); the worker's state
// events do not — the core publishes states, after its own manifest is
// durable. Whenever the stream ends, the worker's manifest decides:
// terminal states come home, a parked job (the worker is draining) moves
// on, anything else re-opens the stream, skipping what was already relayed.
func (a *attempt) watch(ctx, actx context.Context) serve.Outcome {
	c := a.c
	var (
		lastSeq, attempts, fails int
		mirrored, stage          string
		nextMirror               time.Time
	)
	for {
		a.cl.JobEvents(actx, a.remoteID, func(e serve.Event) error {
			if e.Seq <= lastSeq || e.Type == "state" {
				return nil
			}
			lastSeq = e.Seq
			if e.Type == "stage" {
				stage = e.Stage
			}
			// The stage event precedes the worker's checkpoint write, so
			// keep fetching (paced) until the checkpoint has caught up.
			if now := time.Now(); stage != mirrored && now.After(nextMirror) {
				mirrored = a.mirrorCheckpoint(actx, mirrored)
				nextMirror = now.Add(c.cfg.Poll / 2)
			}
			a.j.Hub.Publish(e)
			return nil
		})
		remote, err := a.cl.Job(actx, a.remoteID)
		switch cause := context.Cause(actx); {
		case errors.Is(cause, errNodeLost):
			return a.failOver(ctx, errNodeLost.Error())
		case cause != nil:
			// Draining: the worker carries on; the next boot re-attaches.
			return serve.Outcome{State: serve.StateRunning}
		case err != nil:
			if fails++; fails >= watchFailLimit {
				c.backoff(a.node, time.Second)
				return a.failOver(ctx, "lost worker "+a.node)
			}
		case remote.State == serve.StateDone:
			return a.finalize(actx, remote)
		case remote.State.Terminal():
			return serve.Outcome{State: remote.State, Error: remote.Error, Result: remote.Result}
		case remote.State == serve.StateParked:
			// Its own next boot would resume the job, but the fleet answer
			// is to move it now.
			return a.failOver(ctx, "worker "+a.node+" draining")
		default:
			fails = 0
			if attempts != 0 && remote.Attempts != attempts {
				lastSeq = 0 // the worker restarted the job: its Seq did too
			}
			attempts = remote.Attempts
		}
		select {
		case <-actx.Done():
		case <-time.After(c.cfg.Poll):
		}
	}
}

// failOver is retry after a dispatch that had succeeded.
func (a *attempt) failOver(ctx context.Context, why string) serve.Outcome {
	a.c.Registry().Counter("coord.jobs_failed_over").Inc()
	a.c.log.Info("job failing over", "job", a.j.M.ID, "reason", why)
	return a.retry(ctx, why)
}

// mirrorCheckpoint best-effort copies the worker's checkpoint.json into
// the coordinator's job dir — the raw material for re-admission on another
// worker — and records its stage. Failure is tolerable: failover then
// resumes from an older checkpoint or reruns cold, which the engine's
// bit-determinism still lands on the exact same result, just slower. It
// returns the stage now mirrored.
func (a *attempt) mirrorCheckpoint(ctx context.Context, have string) string {
	c, id := a.c, a.j.M.ID
	data, err := a.cl.Artifact(ctx, a.remoteID, "checkpoint.json")
	var cp struct {
		Stage string `json:"stage"`
	}
	if err != nil || json.Unmarshal(data, &cp) != nil || cp.Stage == "" || cp.Stage == have {
		return have
	}
	if err := c.Spool().WriteArtifact(id, "checkpoint.json", data); err != nil {
		c.log.Warn("checkpoint mirror failed", "job", id, "error", err)
		return have
	}
	c.Spool().Update(id, func(mm *serve.Manifest) error {
		mm.Stage = cp.Stage
		return nil
	})
	return cp.Stage
}

// finalize brings a finished job home: artifacts are pulled into the
// coordinator spool (the worker may be ephemeral), the
// client→coordinator→worker trace is merged, and the result is content
// addressed for the cache index the core's Finished hook fills.
func (a *attempt) finalize(ctx context.Context, remote *serve.Manifest) serve.Outcome {
	c, m := a.c, a.j.M
	if remote.Result != nil {
		for _, name := range remote.Result.Artifacts {
			data, err := a.cl.Artifact(ctx, a.remoteID, name)
			if err == nil {
				err = c.Spool().WriteArtifact(m.ID, name, data)
			}
			if err != nil {
				c.log.Warn("artifact mirror failed", "job", m.ID, "artifact", name, "error", err)
			}
		}
	}
	a.mergeTrace()
	return serve.Outcome{State: serve.StateDone, Result: remote.Result,
		ResultDigest: resultDigest(m, remote.Result)}
}

// mergeTrace ends the job's coordinator span and overwrites the mirrored
// trace.json with the coordinator + worker merge. MergeChromeTraces
// output is itself a valid trace part, so pufferctl's client-side merge
// composes on top — one trace ID from terminal to worker pipeline.
func (a *attempt) mergeTrace() {
	c, id := a.c, a.j.M.ID
	a.span.End()
	var coordPart bytes.Buffer
	if err := a.tracer.WriteJSON(&coordPart); err != nil {
		return
	}
	path, err := c.Spool().ArtifactPath(id, "trace.json")
	if err != nil {
		return
	}
	parts := []obs.TracePart{{Process: "puffer-coordinator", Data: coordPart.Bytes()}}
	if workerTrace, err := os.ReadFile(path); err == nil && len(workerTrace) > 0 {
		parts = append(parts, obs.TracePart{Process: "pufferd-worker", Data: workerTrace})
	}
	var merged bytes.Buffer
	if err := obs.MergeChromeTraces(&merged, parts...); err != nil {
		return
	}
	if err := c.Spool().WriteArtifact(id, "trace.json", merged.Bytes()); err != nil {
		c.log.Warn("trace merge write failed", "job", id, "error", err)
	}
}

// Artifact fetches a running job's artifact from the worker holding it.
func (c *Server) Artifact(ctx context.Context, m *serve.Manifest, name string) ([]byte, error) {
	c.mu.Lock()
	n := c.nodes[m.Node]
	c.mu.Unlock()
	if n == nil || n.mf.Addr != m.NodeAddr {
		return nil, fmt.Errorf("node %s is not registered", m.Node)
	}
	return n.cl.Artifact(ctx, m.RemoteID, name)
}
