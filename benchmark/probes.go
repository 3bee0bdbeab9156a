package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/cas"
	"puffer/internal/explore"
	"puffer/internal/obs"
	"puffer/internal/serve"
	"puffer/pipeline"
)

// ioProbes times the layers around the placement core on the traced
// design: Bookshelf write/parse, the fleet front door's digests and blob
// store, the pipeline checkpoint round trip, and one TPE suggestion.
func (h *harness) ioProbes(res *runResult, pt *placeTrace) error {
	dir := filepath.Join(h.workDir, "io")
	d := pt.final

	var aux string
	var perr error
	writeMS := timeCalls(slowCalls, func() {
		var err error
		if aux, err = bookshelf.Write(d, filepath.Join(dir, "bs"), "probe"); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("bookshelf.Write: %w", perr)
	}
	files, err := bookshelfFiles(d, filepath.Join(dir, "bs"), "probe")
	if err != nil {
		return err
	}
	parseMS := timeCalls(slowCalls, func() {
		if _, err := bookshelf.Parse(aux); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("bookshelf.Parse: %w", perr)
	}
	bytes := 0
	for _, content := range files {
		bytes += len(content)
	}
	res.set("bookshelf.write_ms", writeMS)
	res.set("bookshelf.parse_ms", parseMS)
	res.set("bookshelf.parse_mb_per_s", float64(bytes)/(1<<20)/(parseMS/1e3))

	var blob []byte
	var derr error
	res.set("cas.digest_ms", timeCalls(slowCalls, func() {
		var err error
		if blob, err = cas.EncodeBookshelf(files); err != nil {
			derr = err
		}
		cas.Sum(blob)
		if _, err := (cas.Config{Kind: serve.KindPlace, Route: true, Seed: h.seed}).Digest(); err != nil {
			derr = err
		}
	}))
	if derr != nil {
		return fmt.Errorf("cas digest: %w", derr)
	}
	// Put is a no-op for a blob the store already holds, so every timed
	// call goes to a fresh store.
	var puts []float64
	for i := 0; i <= slowCalls; i++ {
		store, err := cas.Open(filepath.Join(dir, fmt.Sprintf("cas%d", i)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, _, err = store.Put(blob)
		if err != nil {
			return fmt.Errorf("cas put: %w", err)
		}
		if i > 0 {
			puts = append(puts, time.Since(t0).Seconds()*1e3)
		}
	}
	res.set("cas.put_ms", median(puts))

	cpPath := filepath.Join(dir, "checkpoint.json")
	var cerr error
	res.set("pipeline.checkpoint_ms", timeCalls(slowCalls, func() {
		cp := pipeline.Capture(pipeline.StageDP, d)
		if err := cp.Save(cpPath); err != nil {
			cerr = err
			return
		}
		loaded, err := pipeline.LoadCheckpoint(cpPath)
		if err == nil {
			err = loaded.Apply(pt.base.Clone())
		}
		if err != nil {
			cerr = err
		}
	}))
	if cerr != nil {
		return fmt.Errorf("checkpoint round trip: %w", cerr)
	}
	fi, err := os.Stat(cpPath)
	if err != nil {
		return err
	}
	res.set("pipeline.checkpoint_kb", float64(fi.Size())/1024)

	// One TPE suggestion over the strategy space with 50 observations.
	params := puffer.StrategyParams()
	ranges := map[string]explore.Range{}
	for _, p := range params {
		ranges[p.Name] = explore.Range{Lo: p.Lo, Hi: p.Hi}
		if p.Kind == explore.Categorical {
			ranges[p.Name] = explore.Range{Lo: 0, Hi: float64(len(p.Choices) - 1)}
		}
	}
	rng := rand.New(rand.NewSource(h.seed))
	tpe := explore.DefaultTPE()
	var history []explore.Observation
	for i := 0; i < 50; i++ {
		history = append(history, explore.Observation{X: tpe.Suggest(rng, params, ranges, nil), Y: rng.Float64()})
	}
	res.set("explore.suggest_us", 1e3*timeCalls(kernelCalls, func() { tpe.Suggest(rng, params, ranges, history) }))
	return nil
}

// ecoLayerMetrics runs an ECO session of n deltas under spans and reports
// the per-delta stage walls Session.Apply returns.
func (h *harness) ecoLayerMetrics(ctx context.Context, res *runResult, tr *obs.Tracer, spec designSpec, n int) error {
	base, err := spec.generate(h.seed)
	if err != nil {
		return err
	}
	out, err := h.ecoChain(ctx, res, base, 1, n, subSeed(h.seed, 1), tr)
	if err != nil {
		return err
	}
	res.note("eco layers", "%s/%d, %d deltas", spec.Profile, spec.Scale, len(out.deltaS))
	res.set("eco.gp_ms", median(out.gpMS))
	res.set("eco.legal_ms", median(out.legalMS))
	res.set("eco.dp_ms", median(out.dpMS))
	res.set("eco.gp_iters", median(out.gpIters))
	res.set("eco.parse_validate_us", median(out.parseValidateUS))
	res.set("eco.snapshot_ms", out.snapshotMS)
	if res.Workload == wlEcoChain {
		// On the ECO workload the journal that matters is the session's.
		res.set("cong.hit_rate", out.estHitRate)
	}
	return nil
}

// serveLayerMetrics runs n jobs through a daemon under client-side spans
// and decomposes job wall with the manifest timestamps and /api/v1/ops
// counters. It returns the share of total job wall that decomposition
// explains.
func (h *harness) serveLayerMetrics(ctx context.Context, res *runResult, tr *obs.Tracer, n int) (float64, error) {
	out, err := h.serveLoop(ctx, res, n, tr)
	if err != nil {
		return 0, err
	}
	var submit, queue, run, notify, result, artifact, mb []float64
	explained, total, lost := 0.0, 0.0, 0
	for _, r := range out.jobs {
		if r.notifyLost {
			lost++
		}
		m := r.manifest
		q := m.StartedAt.Sub(m.SubmittedAt).Seconds()
		ru := m.FinishedAt.Sub(*m.StartedAt).Seconds()
		no := r.terminalAt.Sub(*m.FinishedAt).Seconds()
		submit = append(submit, r.submitS*1e3)
		queue = append(queue, q*1e3)
		run = append(run, ru*1e3)
		notify = append(notify, no*1e3)
		result = append(result, r.resultS*1e3)
		artifact = append(artifact, r.artifactS*1e3)
		mb = append(mb, float64(r.artifactBytes)/(1<<20))
		// The submit round trip overlaps the queue wait (the manifest is
		// stamped inside the handler), so only the part before the stamp
		// is added to the server-side intervals.
		admit := m.SubmittedAt.Sub(r.start).Seconds()
		if admit < 0 {
			admit = 0
		}
		explained += admit + q + ru + no + r.resultS + r.artifactS
		total += r.totalS
	}
	res.note("serve layers", "%d jobs", len(out.jobs))
	res.set("serve.boot_ms", out.bootMS)
	res.set("serve.submit_ms", median(submit))
	res.set("serve.queue_wait_ms", median(queue))
	res.set("serve.run_ms", median(run))
	res.set("serve.notify_ms", median(notify))
	res.set("serve.result_ms", median(result))
	res.set("serve.artifact_ms", median(artifact))
	res.set("serve.artifact_mb", mean(mb))
	hits := float64(out.ops.Counters["serve.design_cache_hits"])
	parses := float64(out.ops.Counters["serve.design_parses"])
	res.set("serve.design_cache_hit_rate", hits/(hits+parses))
	res.set("serve.rejected", float64(out.ops.Counters["serve.jobs_rejected"]))
	res.set("serve.notify_lost", float64(lost))
	return explained / total, nil
}
