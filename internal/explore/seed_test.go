package explore

import (
	"testing"
)

// TestGroupSeedNoCollisions pins the fix for the old additive scheme
// (seed + round*1000 + gi), where e.g. (seed=1, round=0, gi=1) and
// (seed=2, round=0, gi=0) collided and nearby seeds shared whole group
// RNG streams. The mixed seeds must be pairwise distinct across seeds,
// rounds, and group indices.
func TestGroupSeedNoCollisions(t *testing.T) {
	seen := map[int64][3]int64{}
	for _, seed := range []int64{0, 1, 2, 42, 1000, -7} {
		for round := 0; round < 20; round++ {
			for gi := 0; gi < 10; gi++ {
				s := groupSeed(seed, round, gi)
				if prev, dup := seen[s]; dup {
					t.Fatalf("groupSeed collision: (%d,%d,%d) and %v -> %d",
						seed, round, gi, prev, s)
				}
				seen[s] = [3]int64{seed, int64(round), int64(gi)}
			}
		}
	}
}

// TestGroupSeedOldSchemeCollided documents why the additive derivation
// was replaced: under it these tuples produced identical RNG streams.
func TestGroupSeedOldSchemeCollided(t *testing.T) {
	old := func(seed int64, round, gi int) int64 { return seed + int64(round)*1000 + int64(gi) }
	if old(1, 0, 1) != old(2, 0, 0) {
		t.Skip("old scheme changed; nothing to document")
	}
	if groupSeed(1, 0, 1) == groupSeed(2, 0, 0) {
		t.Error("mixed groupSeed still collides on (1,0,1) vs (2,0,0)")
	}
}

// TestRunIsDeterministicParallel pins parallel-mode determinism (Workers
// 0, every group at once): the group seeds derive only from (Seed, round,
// group index), so concurrent execution order cannot change the result.
func TestRunIsDeterministicParallel(t *testing.T) {
	run := func() (Assignment, int) {
		e := &Explorer{
			Params:    twoGroupParams(),
			Eval:      sumsq,
			TimeLimit: 30, EarlyStop: 30, Rounds: 2, Seed: 9,
		}
		final, _ := e.Run()
		return final, len(e.History())
	}
	f1, n1 := run()
	f2, n2 := run()
	if n1 != n2 {
		t.Fatalf("history lengths differ: %d vs %d", n1, n2)
	}
	for k, v := range f1 {
		if f2[k] != v {
			t.Errorf("final[%q] differs: %v vs %v", k, v, f2[k])
		}
	}
}
