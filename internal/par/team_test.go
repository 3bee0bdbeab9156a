package par

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// shardLog records the (w, lo, hi) calls of one Shards/ForShards dispatch.
type shardLog struct {
	mu    sync.Mutex
	calls [][3]int
}

func (l *shardLog) fn(w, lo, hi int) {
	l.mu.Lock()
	l.calls = append(l.calls, [3]int{w, lo, hi})
	l.mu.Unlock()
}

func (l *shardLog) sorted() string {
	sort.Slice(l.calls, func(i, j int) bool { return l.calls[i][0] < l.calls[j][0] })
	return fmt.Sprint(l.calls)
}

// visits runs an N/ForN dispatch and returns, per goroutine, the indices
// it visited in visit order, failing on an index not visited exactly once.
func visits(t *testing.T, n int, visit func(fn func(i int))) [][]int {
	t.Helper()
	var mu sync.Mutex
	by := map[int][]int{}
	hits := make([]int, n)
	visit(func(i int) {
		g := goid()
		mu.Lock()
		by[g] = append(by[g], i)
		hits[i]++
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("n=%d: index %d visited %d times", n, i, h)
		}
	}
	var out [][]int
	for _, idx := range by {
		out = append(out, idx)
	}
	return out
}

// TestTeamRangesMatchForShardsAndForN: for every n in 0..100 and team size
// 1..17, started or not, Team.Shards makes exactly ForShards' calls and
// Team.N runs exactly ForN's chunks — each chunk on one executor, in
// order, uninterrupted.
func TestTeamRangesMatchForShardsAndForN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(17))
	for size := 1; size <= 17; size++ {
		for _, started := range []bool{false, true} {
			team := NewTeam(size)
			if team.Size() != size {
				t.Fatalf("NewTeam(%d).Size() = %d", size, team.Size())
			}
			if started {
				team.Start()
			}
			for n := 0; n <= 100; n++ {
				got, want := &shardLog{}, &shardLog{}
				team.Shards(n, got.fn)
				ForShards(size, n, want.fn)
				if g, w := got.sorted(), want.sorted(); g != w {
					t.Fatalf("size=%d started=%v n=%d: Shards made %s, ForShards %s", size, started, n, g, w)
				}

				// ForN runs one goroutine per chunk: its visit lists are the chunks.
				chunkEnd := map[int]int{} // chunk start → end
				for _, c := range visits(t, n, func(fn func(int)) { ForN(size, n, fn) }) {
					sort.Ints(c)
					chunkEnd[c[0]] = c[len(c)-1] + 1
				}
				for _, seq := range visits(t, n, func(fn func(int)) { team.N(n, fn) }) {
					for p := 0; p < len(seq); {
						end, ok := chunkEnd[seq[p]]
						if !ok || p+end-seq[p] > len(seq) {
							t.Fatalf("size=%d started=%v n=%d: an executor's visits %v do not start ForN chunks", size, started, n, seq)
						}
						for i := seq[p]; i < end; i, p = i+1, p+1 {
							if seq[p] != i {
								t.Fatalf("size=%d started=%v n=%d: an executor's visits %v split a ForN chunk", size, started, n, seq)
							}
						}
					}
				}
			}
			team.Stop()
		}
	}
}

// TestTeamSizeCapsAtGOMAXPROCS: a team never outnumbers the threads that
// can run it.
func TestTeamSizeCapsAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for workers, want := range map[int]int{-1: 3, 0: 3, 1: 1, 2: 2, 3: 3, 8: 3} {
		if got := NewTeam(workers).Size(); got != want {
			t.Errorf("NewTeam(%d).Size() = %d under GOMAXPROCS 3, want %d", workers, got, want)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which a team's caller runs every shard itself: the helpers must run
// alongside it for a hand-off to be measured. It warms f up with as many
// runs as it measures — long enough for the runtime's per-thread caches
// behind a blocking wake-up to fill — and, like testing.AllocsPerRun,
// reports whole allocations per run.
func allocsPerRun(runs int, f func()) uint64 {
	for i := 0; i < runs; i++ {
		f()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs)
}

// TestTeamDispatchZeroAlloc: once started, handing a stage bound ahead of
// time to the team allocates nothing — Shards and N alike — while the
// helpers really run shards.
func TestTeamDispatchZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	team := NewTeam(4)
	team.Start()
	defer team.Stop()
	out := make([]float64, 100_000)
	shard := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] += float64(w)
		}
	}
	index := func(i int) { out[i]++ }
	before := team.Handoffs()
	if n := allocsPerRun(100, func() {
		team.Shards(len(out), shard)
		team.N(7, index)
	}); n != 0 {
		t.Errorf("dispatch allocates %v per run, want 0", n)
	}
	if team.Handoffs() == before {
		t.Error("the helpers ran no shard")
	}
}

// TestTeamSurvivesGOMAXPROCSDrop: a four-executor team whose scheduler is
// cut to one thread after it formed still completes every stage — spinning
// executors yield, then block, instead of starving the one they wait for.
func TestTeamSurvivesGOMAXPROCSDrop(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	team := NewTeam(4)
	team.Start()
	defer team.Stop()
	runtime.GOMAXPROCS(1)
	var sum atomic.Int64
	stage := func(w, lo, hi int) { sum.Add(int64(hi - lo)) }
	start := time.Now()
	for i := 0; i < 2000; i++ {
		team.Shards(8, stage)
		// Serial gaps longer than the spin, so helpers also block and wake.
		if i%100 == 0 {
			time.Sleep(2 * spinFor)
		}
	}
	if sum.Load() != 2000*8 {
		t.Fatalf("stages covered %d indices, want %d", sum.Load(), 2000*8)
	}
	t.Logf("2000 stages on 4 executors under GOMAXPROCS 1: %v", time.Since(start))
}

// helpers counts the live goroutines a Team.Start launched.
func helpers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by puffer/internal/par.(*Team).Start"))
}

// TestTeamLeak: helpers exist only between Start and Stop, and a team can
// be restarted.
func TestTeamLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	team := NewTeam(4)
	for round := 0; round < 3; round++ {
		team.Start()
		team.Start() // no-op
		if got := helpers(); got != 3 {
			t.Fatalf("round %d: %d helpers while started, want 3", round, got)
		}
		var hits atomic.Int32
		team.N(100, func(int) { hits.Add(1) })
		if hits.Load() != 100 {
			t.Fatalf("round %d: %d indices visited", round, hits.Load())
		}
		team.Stop()
		team.Stop() // no-op
		deadline := time.Now().Add(5 * time.Second)
		for helpers() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d helpers after Stop", round, helpers())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// BenchmarkHandoff measures one hand-off of an empty two-shard stage on a
// started team and through ForShards' per-call goroutines: back to back,
// and after a 100 µs stretch of serial caller work — the situation of a
// stage that follows buildRects or project in a GP iteration.
// handoff-ns excludes the serial stretch.
func BenchmarkHandoff(b *testing.B) {
	stage := func(w, lo, hi int) {}
	for _, gap := range []time.Duration{0, 100 * time.Microsecond} {
		run := func(b *testing.B, dispatch func()) {
			b.ReportAllocs()
			var serial time.Duration
			start := time.Now()
			for i := 0; i < b.N; i++ {
				g0 := time.Now()
				for time.Since(g0) < gap {
				}
				serial += time.Since(g0)
				dispatch()
			}
			b.ReportMetric(float64((time.Since(start)-serial).Nanoseconds())/float64(b.N), "handoff-ns")
		}
		b.Run(fmt.Sprintf("Team/gap=%v", gap), func(b *testing.B) {
			team := NewTeam(2)
			team.Start()
			defer team.Stop()
			run(b, func() { team.Shards(2, stage) })
		})
		b.Run(fmt.Sprintf("ForShards/gap=%v", gap), func(b *testing.B) {
			run(b, func() { ForShards(2, 2, stage) })
		})
	}
}
