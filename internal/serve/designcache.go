package serve

import (
	"sync"

	"puffer/internal/cas"
	"puffer/internal/netlist"
	"puffer/internal/rsmt"
)

// designEntry is the expensive per-design state shared by every job
// touching one design on this daemon: the pristine parsed/generated
// netlist (jobs run on clones) and a memo of RSMT topologies keyed by
// exact pin positions. Jobs of one design under different strategies all
// start from the same initial placement and walk identical global-placement
// trajectories until their first strategy-dependent divergence, so the
// memo turns that shared prefix's full-netlist topology stamps into
// lookups.
type designEntry struct {
	base *netlist.Design
	topo *rsmt.Memo
}

// designCache bounds how many designs keep their parsed state resident.
// Keys are content addresses (upload blob digests or profile identities),
// so a hit is always the byte-identical design.
type designCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*designEntry
	order   []string // insertion order; oldest evicts first
}

// designCacheCap is how many designs a daemon keeps warm. A handful covers
// mixed workloads without holding every historical netlist alive.
const designCacheCap = 4

func newDesignCache() *designCache {
	return &designCache{cap: designCacheCap, entries: map[string]*designEntry{}}
}

// lookup returns the entry for key, or nil.
func (c *designCache) lookup(key string) *designEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// insert stores the entry, evicting the oldest design at capacity. A
// racing insert of the same key keeps the first entry (its memo may
// already be warm).
func (c *designCache) insert(key string, e *designEntry) *designEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[key]; ok {
		return prev
	}
	for len(c.order) >= c.cap {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, old)
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	return e
}

// designKey returns the content address under which a job's design may be
// cached ("" = uncacheable): a profile job's identity. Uploads have no
// digest without re-encoding the files, so they skip the cache.
func designKey(m *Manifest) string {
	if m.Spec.Profile != "" {
		return string(cas.ProfileDesignDigest(m.Spec.Profile, m.Spec.Scale, m.Spec.Seed))
	}
	return ""
}
