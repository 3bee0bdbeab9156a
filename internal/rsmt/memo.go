package rsmt

import (
	"math"
	"sync"
	"sync/atomic"

	"puffer/internal/geom"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }

// Memo is a bounded, concurrency-safe cache over Build keyed by the exact
// pin-position sequence. Build is a pure function of its input, so a hit
// is result-transparent: it returns the identical topology the miss path
// would have constructed; cached Tree values are shared, so a consumer
// must not mutate them in place.
//
// No program path uses it: the one reader is the frozen benchmark harness
// (benchmark/kernels.go, its own module), which reports its hit rate as
// rsmt.memo_hit_rate. Delete with the harness's next revision (ROADMAP item 9).
//
// A nil *Memo is valid and degrades to plain Build.
type Memo struct {
	mu  sync.Mutex
	m   map[uint64][]memoEntry
	n   int // live entries
	cap int

	hits   atomic.Uint64
	misses atomic.Uint64
}

type memoEntry struct {
	pts  []geom.Point
	tree Tree
}

// DefaultMemoCap bounds a shared memo to roughly one large design's nets.
// Insertion simply stops at capacity: the shared-prefix topologies — the
// valuable ones — are inserted first, and later strategy-divergent
// topologies would rarely be re-hit anyway.
const DefaultMemoCap = 1 << 18

// NewMemo returns a memo bounded to cap entries (cap <= 0 uses
// DefaultMemoCap).
func NewMemo(cap int) *Memo {
	if cap <= 0 {
		cap = DefaultMemoCap
	}
	return &Memo{m: make(map[uint64][]memoEntry), cap: cap}
}

// Build returns the RSMT topology for pts, serving from the cache when the
// exact point sequence has been built before.
func (m *Memo) Build(pts []geom.Point) Tree {
	if m == nil {
		return Build(pts)
	}
	key := hashPts(pts)
	m.mu.Lock()
	for _, e := range m.m[key] {
		if samePts(e.pts, pts) {
			m.mu.Unlock()
			m.hits.Add(1)
			return e.tree
		}
	}
	m.mu.Unlock()
	m.misses.Add(1)
	tree := Build(pts)
	m.mu.Lock()
	if m.n < m.cap {
		// Re-check under the lock: a racing builder may have inserted the
		// same key while we built. Duplicates are harmless but wasteful.
		dup := false
		for _, e := range m.m[key] {
			if samePts(e.pts, pts) {
				dup = true
				break
			}
		}
		if !dup {
			cp := make([]geom.Point, len(pts))
			copy(cp, pts)
			m.m[key] = append(m.m[key], memoEntry{pts: cp, tree: tree})
			m.n++
		}
	}
	m.mu.Unlock()
	return tree
}

// Stats reports cache hits, misses, and live entries.
func (m *Memo) Stats() (hits, misses uint64, size int) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	size = m.n
	m.mu.Unlock()
	return m.hits.Load(), m.misses.Load(), size
}

// hashPts is FNV-1a over the raw coordinate bits. Collisions are resolved
// by exact comparison in Build, so the hash only partitions buckets.
func hashPts(pts []geom.Point) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(len(pts)))
	for _, p := range pts {
		mix(floatBits(p.X))
		mix(floatBits(p.Y))
	}
	return h
}

func samePts(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bit comparison: the memo key is the exact input, and distinct
		// NaN/zero encodings must not alias.
		if floatBits(a[i].X) != floatBits(b[i].X) || floatBits(a[i].Y) != floatBits(b[i].Y) {
			return false
		}
	}
	return true
}
