package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForParallelBranch forces multiple workers even on single-core hosts
// so the goroutine fan-out path is exercised.
func TestForParallelBranch(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 997 // not divisible by the worker count
	var hits [n]int32
	var total int32
	ForN(0, n, func(i int) {
		atomic.AddInt32(&hits[i], 1)
		atomic.AddInt32(&total, 1)
	})
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// More workers than items: each item still visited once.
	var small int32
	ForN(0, 2, func(i int) { atomic.AddInt32(&small, 1) })
	if small != 2 {
		t.Fatalf("small run total = %d", small)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	const n = 1000
	var hits [n]int32
	ForN(0, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForSmallAndEmpty(t *testing.T) {
	var count int32
	ForN(0, 0, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 0 {
		t.Error("ForN(0, 0) invoked fn")
	}
	ForN(0, 1, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 1 {
		t.Errorf("ForN(0, 1) invoked fn %d times", count)
	}
	ForN(0, 3, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 4 {
		t.Errorf("ForN(0, 3) total = %d, want 4", count)
	}
}

// TestForShardsCoversDisjointRanges checks every index is visited exactly
// once, shards are contiguous and ordered, and each shard index appears
// exactly once.
func TestForShardsCoversDisjointRanges(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		const n = 101
		var hits [n]int32
		var shardCalls atomic.Int32
		ForShards(workers, n, func(w, lo, hi int) {
			shardCalls.Add(1)
			if lo > hi || lo < 0 || hi > n {
				t.Errorf("workers=%d shard %d: bad range [%d,%d)", workers, w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
		want := workers
		if want > n {
			want = n
		}
		if int(shardCalls.Load()) != want {
			t.Fatalf("workers=%d: %d shard calls, want %d", workers, shardCalls.Load(), want)
		}
	}
}

// TestForShardsSerialRunsInline proves the one-worker path calls fn once
// on the calling goroutine with the full range.
func TestForShardsSerialRunsInline(t *testing.T) {
	got := -1
	ForShards(1, 50, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 50 {
			t.Errorf("serial shard = (%d, %d, %d)", w, lo, hi)
		}
		got = hi
	})
	if got != 50 {
		t.Fatal("fn never ran")
	}
	ForShards(4, 0, func(w, lo, hi int) { t.Error("fn called for n=0") })
}
