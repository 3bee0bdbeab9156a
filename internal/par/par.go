// Package par provides the data-parallel helpers of the flow. The paper's
// experiments run with eight threads; these helpers spread index ranges
// across a configurable number of workers (GOMAXPROCS by default —
// heavy-traffic deployments cap it via the Workers knobs threaded through
// pipeline.Config).
//
// Two kinds of parallel section use them. Sections that run a few times
// per flow stage — congestion estimation, feature extraction, routing, the
// experiment harness — spawn goroutines per call: For/ForN/ForShards, and
// ForErr, the context-aware variant that stops scheduling new work on
// cancellation or first error (which is what lets the pipeline observe a
// cancel within one net batch / feature chunk). The global-placement hot
// path hands off ≈ 30 short stages per iteration, where a goroutine spawn
// and WaitGroup barrier per stage cost more than the stages save; it runs
// on a Team instead — persistent executors that spin briefly between
// stages, then block — whose Shards/N cut the same ranges as
// ForShards/ForN without allocating.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"puffer/internal/flow"
)

// Workers resolves a requested worker count: n itself when positive,
// GOMAXPROCS when n is zero or negative.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ShardRange returns the half-open index range [lo, hi) of shard w when n
// items are split across k shards as evenly as possible (the first n%k
// shards get one extra item). Shards are contiguous and ordered, so a
// merge that visits shards 0..k-1 in order is deterministic.
func ShardRange(w, k, n int) (lo, hi int) {
	if k <= 0 || n <= 0 || w < 0 || w >= k {
		return 0, 0
	}
	base := n / k
	rem := n % k
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// For runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n) workers.
// fn must be safe to call concurrently for distinct indices. For blocks
// until all calls complete.
func For(n int, fn func(i int)) { ForN(0, n, fn) }

// ForN is For with an explicit worker cap (0 = GOMAXPROCS).
func ForN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for k := 0; k < w; k++ {
		lo := k * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForShards splits [0, n) into min(Workers(workers), n) contiguous shards
// and runs fn(w, lo, hi) for each shard w on its own goroutine, blocking
// until all return. Unlike For/ForN, fn receives the shard index, so
// callers can hand each executor private scratch (per-worker FFT buffers,
// per-worker accumulators) without synchronization.
//
// The shard STRUCTURE depends on the worker count, so ForShards is only
// safe for worker-count-independent results when every shard writes a
// disjoint output range (or the outputs are order-independent, like
// per-pin gradient slots). For floating-point reductions that must stay
// bit-identical across worker counts, shard the reduction with a count
// derived from the problem size (see internal/density's overflow partials)
// and use ForN to execute the fixed shards.
//
// With one effective worker fn(0, 0, n) runs on the calling goroutine
// without spawning; otherwise every call spawns its shards, which is why
// hot paths dispatch on a Team instead.
func ForShards(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			lo, hi := ShardRange(k, w, n)
			fn(k, lo, hi)
		}(k)
	}
	wg.Wait()
}

// forErrChunk is how many consecutive indices one worker claims per grab.
// Small enough that a cancel is observed quickly, large enough that the
// atomic counter is not the bottleneck on fine-grained bodies.
const forErrChunk = 16

// ForErr runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n)
// workers, stopping the schedule of new chunks as soon as ctx is canceled
// or any call returns an error. Already-started chunks run to completion
// (fn is never interrupted mid-call). ForErr returns the first error
// observed: a fn error verbatim, or an error wrapping flow.ErrCanceled
// when the context ended first. Indices beyond the first failure may or
// may not have been visited.
func ForErr(ctx context.Context, n int, fn func(i int) error) error {
	return ForErrN(ctx, 0, n, fn)
}

// ForErrN is ForErr with an explicit worker cap (0 = GOMAXPROCS). When n
// is small relative to the worker count — the sharded-accumulator callers
// pass one index per shard — chunks shrink to a single index so every
// worker gets a share.
func ForErrN(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return flow.Check(ctx)
	}
	maxWorkers := Workers(workers)
	chunk := forErrChunk
	if n <= maxWorkers*forErrChunk {
		chunk = 1
	}
	w := maxWorkers
	if nc := (n + chunk - 1) / chunk; w > nc {
		w = nc
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if i%forErrChunk == 0 {
				if err := flow.Check(ctx); err != nil {
					return err
				}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next unclaimed index
		mu       sync.Mutex
		firstErr error
		stopped  atomic.Bool
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			stopped.Store(true)
		}
		mu.Unlock()
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				if err := flow.Check(ctx); err != nil {
					fail(err)
					return
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if err := fn(i); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
