package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinFor is how long an idle executor polls for work before it blocks. It
// bridges the serial gaps between the stages of one GP iteration (tens to a
// few hundred µs: buildRects, project, the merges of the fixed-shard
// reductions), where a blocked thread would have to be woken — on a
// virtual machine, an idle vCPU brought back by the hypervisor (DESIGN.md
// §3e) — and it is short enough that a team idling through a padding round
// costs next to nothing.
const spinFor = 200 * time.Microsecond

// spinBatch is how many polls an executor makes between clock reads and
// yields. The yield is what keeps a spinning executor from starving the
// one it waits for when the team outnumbers GOMAXPROCS.
const spinBatch = 64

// Team is a persistent group of executors that runs pre-bound stage bodies
// over index ranges — the allocation-free hand-off behind the GP engine's
// hot path. The caller of Shards/N is one executor; the other Size()-1 are
// goroutines that Start launches and Stop retires. Between stages they spin
// briefly, then block.
//
// Shards and N cut exactly the ranges ForShards and ForN cut for Size()
// workers, and every shard runs exactly once, so a stage whose result is
// independent of the shard structure under those helpers is independent of
// it here. Executors claim shards from a shared counter, so the caller
// takes over the shards of a helper the host has not scheduled yet instead
// of waiting for it. The in-flight stage lives in the team's fields, so a
// dispatch of a function value that already exists (a stage body bound
// once at construction) allocates nothing.
//
// A team that is not started (or has one executor) still honors the shard
// structure: Shards/N fall back to ForShards/ForN, one goroutine per
// shard, so a kernel handed a team outside any engine run — the standalone
// SetWorkers of wirelength, density and nesterov — keeps its parallelism.
//
// A Team serves one dispatching goroutine at a time; stage bodies must not
// dispatch on their own team.
type Team struct {
	size    int
	running bool

	// The in-flight stage: written by the caller before it publishes the
	// claim word, read by an executor only once it has claimed a shard.
	shardFn func(w, lo, hi int)
	indexFn func(i int)
	n       int
	chunk   int // N's chunk length

	// claim packs the in-flight stage's shard count (high 32 bits) and its
	// next unclaimed shard (low 32 bits); a successful compare-and-swap
	// claims one shard.
	claim    atomic.Uint64
	done     atomic.Int32 // shards of the in-flight stage finished
	handoffs atomic.Int64 // shards the helpers ran
	stopping atomic.Bool

	mu           sync.Mutex
	wake         sync.Cond // blocked helpers wait here for a claimable shard
	finished     sync.Cond // a blocked caller waits here for done to reach the count
	parked       atomic.Int32
	callerParked atomic.Bool
	wg           sync.WaitGroup
}

// NewTeam builds a stopped team of min(Workers(workers), GOMAXPROCS)
// executors: more than the scheduler can run at once would only spin
// against each other.
func NewTeam(workers int) *Team {
	t := &Team{size: min(Workers(workers), runtime.GOMAXPROCS(0))}
	t.wake.L = &t.mu
	t.finished.L = &t.mu
	return t
}

// Size reports the number of executors, the caller included.
func (t *Team) Size() int { return t.size }

// Handoffs reports how many shards the helper executors have run — zero
// for a team whose caller never had help.
func (t *Team) Handoffs() int { return int(t.handoffs.Load()) }

// Start launches the helper executors; Stop retires them. A started team
// must be stopped, or its helpers outlive it. Start on a started or
// single-executor team is a no-op.
func (t *Team) Start() {
	if t.running || t.size <= 1 {
		return
	}
	t.running = true
	t.wg.Add(t.size - 1)
	for k := 1; k < t.size; k++ {
		go t.helper()
	}
}

// Stop retires the helper executors and waits for them to exit. The team
// can be started again.
func (t *Team) Stop() {
	if !t.running {
		return
	}
	t.running = false
	t.stopping.Store(true)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	t.wg.Wait()
	t.stopping.Store(false)
}

// Shards runs fn(w, lo, hi) for the min(Size(), n) shards ForShards cuts
// [0, n) into, and returns when all have.
func (t *Team) Shards(n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if t.size <= 1 || n == 1 {
		fn(0, 0, n)
		return
	}
	if !t.running {
		ForShards(t.size, n, fn)
		return
	}
	t.shardFn, t.indexFn, t.n = fn, nil, n
	t.dispatch(min(t.size, n))
	t.shardFn = nil
}

// N runs fn(i) for every i in [0, n), one contiguous chunk of the ones
// ForN cuts at a time, and returns when all have.
func (t *Team) N(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if t.size <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if !t.running {
		ForN(t.size, n, fn)
		return
	}
	w := min(t.size, n)
	t.shardFn, t.indexFn, t.n, t.chunk = nil, fn, n, (n+w-1)/w
	t.dispatch(w)
	t.indexFn = nil
}

// dispatch publishes a stage of the given shard count, claims shards on
// the caller while any are left, and waits for the rest to finish.
func (t *Team) dispatch(shards int) {
	t.done.Store(0)
	t.claim.Store(uint64(shards) << 32)
	if t.parked.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
	for t.runOne() {
	}
	t.join(int32(shards))
}

// claimable reports whether the in-flight stage has an unclaimed shard.
func (t *Team) claimable() bool {
	c := t.claim.Load()
	return uint32(c) < uint32(c>>32)
}

// runOne claims and runs one shard of the in-flight stage, reporting
// false when none was left to claim.
func (t *Team) runOne() bool {
	c := t.claim.Load()
	for {
		shards, k := int(c>>32), int(uint32(c))
		if k >= shards {
			return false
		}
		if t.claim.CompareAndSwap(c, c+1) {
			t.run(k, shards)
			if t.done.Add(1) == int32(shards) && t.callerParked.Load() {
				t.mu.Lock()
				t.finished.Signal()
				t.mu.Unlock()
			}
			return true
		}
		c = t.claim.Load()
	}
}

// run executes shard k of the in-flight stage.
func (t *Team) run(k, shards int) {
	if t.shardFn != nil {
		lo, hi := ShardRange(k, shards, t.n)
		t.shardFn(k, lo, hi)
		return
	}
	lo := k * t.chunk
	hi := min(lo+t.chunk, t.n)
	for i := lo; i < hi; i++ {
		t.indexFn(i)
	}
}

// helper is a helper executor's loop: wait for a claimable shard, run
// shards while any are left, repeat until Stop.
func (t *Team) helper() {
	defer t.wg.Done()
	for t.await() {
		for t.runOne() {
			t.handoffs.Add(1)
		}
	}
}

// await spins until a shard is claimable, then blocks until one is. It
// reports false when the team is stopping. A helper counts itself parked
// before its last look at the claim word, so either it sees the caller's
// publication or the caller sees it parked (sequentially consistent
// atomics).
func (t *Team) await() bool {
	start := time.Now()
	for i := 1; ; i++ {
		if t.stopping.Load() {
			return false
		}
		if t.claimable() {
			return true
		}
		if i%spinBatch == 0 {
			if time.Since(start) > spinFor {
				break
			}
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	t.parked.Add(1)
	for !t.claimable() && !t.stopping.Load() {
		t.wake.Wait()
	}
	t.parked.Add(-1)
	t.mu.Unlock()
	return !t.stopping.Load()
}

// join spins until all shards of the in-flight stage have finished, then
// blocks until they have.
func (t *Team) join(shards int32) {
	start := time.Now()
	for i := 1; ; i++ {
		if t.done.Load() == shards {
			return
		}
		if i%spinBatch == 0 {
			if time.Since(start) > spinFor {
				break
			}
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	t.callerParked.Store(true)
	for t.done.Load() != shards {
		t.finished.Wait()
	}
	t.callerParked.Store(false)
	t.mu.Unlock()
}
