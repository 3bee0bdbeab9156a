package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"time"

	"puffer/internal/client"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// NodeManifestFormat identifies the node manifest JSON document version —
// the registration/heartbeat body a fleet worker posts to its coordinator.
const NodeManifestFormat = "puffer/node/v1"

// NodeManifest is one worker's self-description: identity, where the
// coordinator can reach its job API, which engine revision it runs, and a
// load snapshot. Workers post it on registration and then on every
// heartbeat; the stats ride along so dispatch decisions never need a
// reverse call into the worker.
type NodeManifest struct {
	Format string `json:"format"`
	// ID is the worker's stable node name (unique within the fleet).
	ID string `json:"id"`
	// Addr is the base URL of the worker's job API, e.g. "http://host:port".
	Addr string `json:"addr"`
	// Engine is the worker's serve.EngineVersion. The coordinator only
	// dispatches to engine-matched nodes — mixed-version fleets would break
	// the result cache's correctness contract.
	Engine string `json:"engine"`
	// Stats is the worker's load at heartbeat time.
	Stats serve.Stats `json:"stats"`
}

// ParseNodeManifest decodes and validates a node manifest. It is a pure
// function — rejection mutates no registry state — and rejects empty or
// truncated input, documents with unknown fields or trailing data, foreign
// format strings, missing IDs, IDs with path or control characters,
// unparsable or schemeless addresses, empty engine strings, and negative
// load figures. The fuzz target FuzzParseNodeManifest drives this.
func ParseNodeManifest(data []byte) (*NodeManifest, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("coord: node manifest is empty")
	}
	mf := &NodeManifest{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(mf); err != nil {
		return nil, fmt.Errorf("coord: decode node manifest (truncated or not a node manifest?): %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("coord: node manifest has trailing data")
	}
	if mf.Format != NodeManifestFormat {
		return nil, fmt.Errorf("coord: node manifest format %q, want %q", mf.Format, NodeManifestFormat)
	}
	if mf.ID == "" || len(mf.ID) > 128 {
		return nil, fmt.Errorf("coord: node ID must be 1-128 characters")
	}
	for _, c := range mf.ID {
		if c <= ' ' || c == '/' || c == '\\' || c == 0x7f {
			return nil, fmt.Errorf("coord: node ID %q has unsafe characters", mf.ID)
		}
	}
	u, err := url.Parse(mf.Addr)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("coord: node addr %q is not an http(s) base URL", mf.Addr)
	}
	if mf.Engine == "" {
		return nil, fmt.Errorf("coord: node manifest has no engine version")
	}
	st := mf.Stats
	if st.QueueDepth < 0 || st.QueueCap < 0 || st.Workers < 0 || st.ActiveJobs < 0 {
		return nil, fmt.Errorf("coord: node stats have negative figures")
	}
	return mf, nil
}

// Announcer posts a worker's node manifest to a coordinator on an
// interval. It is the entire worker side of fleet membership: the job API
// itself is the unmodified standalone serve.Server.
type Announcer struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Manifest is called per heartbeat so the load snapshot is fresh.
	Manifest func() NodeManifest
	// Interval is the heartbeat period (default 2s).
	Interval time.Duration
	// Log receives announce failures (nil = silent).
	Log *slog.Logger
}

// Run heartbeats until ctx is canceled. The first announcement is
// immediate (registration); failures log and retry on the next tick —
// a worker outliving a coordinator restart re-registers by just
// continuing to heartbeat.
func (a *Announcer) Run(ctx context.Context) {
	interval := a.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	log := a.Log
	if log == nil {
		log = obs.NopLogger()
	}
	cl := client.New(a.Coordinator, &http.Client{Timeout: 5 * time.Second})
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		mf := a.Manifest()
		mf.Format = NodeManifestFormat
		if err := cl.Announce(ctx, mf); err != nil && ctx.Err() == nil {
			log.Warn("fleet announce failed", "coordinator", a.Coordinator, "error", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// node is the registry entry for one worker.
type node struct {
	mf       NodeManifest
	cl       *client.Client
	lastSeen time.Time
	// unavailableUntil holds dispatch off a worker that refused a job: for
	// its own Retry-After estimate after a 429, briefly after any other
	// failure so the next attempt prefers a different worker.
	unavailableUntil time.Time
	// jobs holds, per coordinator job ID dispatched here, the cancel of the
	// attempt relaying it — how an expired heartbeat fails its jobs over.
	jobs map[string]context.CancelCauseFunc
}

// eligible reports whether the dispatcher may pick n: live, not draining,
// engine matched (mixed versions would break the result cache's contract).
func (c *Server) eligible(n *node, now time.Time) bool {
	return now.Sub(n.lastSeen) <= c.cfg.DeadAfter &&
		!n.mf.Stats.Draining && n.mf.Engine == serve.EngineVersion
}

// pickNodeLocked selects the dispatch target: eligible, past any backoff,
// with room by the coordinator's own count of what it sent there, lowest
// load (that count plus the node's reported queue and active jobs).
// Caller holds c.mu.
func (c *Server) pickNodeLocked(now time.Time) *node {
	var best *node
	bestLoad := 0
	for _, n := range c.nodes {
		st := n.mf.Stats
		if !c.eligible(n, now) || now.Before(n.unavailableUntil) {
			continue
		}
		if room := st.QueueCap + st.Workers; room > 0 && len(n.jobs) >= room {
			continue
		}
		load := len(n.jobs) + st.QueueDepth + st.ActiveJobs
		if best == nil || load < bestLoad || (load == bestLoad && n.mf.ID < best.mf.ID) {
			best, bestLoad = n, load
		}
	}
	return best
}

// Acquire blocks until some node could take a job. The node itself is
// picked when the job is in hand (Run): the fleet may look different by
// then, and the pick must count the job against the node at once.
func (c *Server) Acquire(ctx context.Context) (func(), error) {
	tick := time.NewTicker(250 * time.Millisecond) // backoffs lapse with time
	defer tick.Stop()
	for {
		c.mu.Lock()
		n := c.pickNodeLocked(time.Now())
		c.mu.Unlock()
		if n != nil {
			return func() {}, nil
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-c.kick:
		case <-tick.C:
		}
	}
}

// Slots is the fleet's parallel capacity: the worker pools of the
// eligible nodes (0 = no workers, which /readyz reports).
func (c *Server) Slots() int {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		if c.eligible(n, now) {
			total += max(1, n.mf.Stats.Workers)
		}
	}
	return total
}

// LiveNodes returns the number of workers with a fresh heartbeat.
func (c *Server) LiveNodes() int {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for _, n := range c.nodes {
		if now.Sub(n.lastSeen) <= c.cfg.DeadAfter {
			live++
		}
	}
	return live
}

// wake nudges Acquire without blocking.
func (c *Server) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// backoff holds dispatch off a node until at least d from now.
func (c *Server) backoff(id string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[id]; ok {
		if until := time.Now().Add(d); n.unavailableUntil.Before(until) {
			n.unavailableUntil = until
		}
	}
}

// handleNodePost is registration + heartbeat in one: workers post their
// manifest on an interval and the coordinator upserts.
func (c *Server) handleNodePost(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.APIError(w, http.StatusBadRequest, "read node manifest: %v", err)
		return
	}
	mf, err := ParseNodeManifest(data)
	if err != nil {
		serve.APIError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if mf.Engine != serve.EngineVersion {
		// Registered but never dispatched to; surfaced in the node table
		// so a mixed-version rollout is visible, not silent.
		c.log.Warn("node engine mismatch", "node", mf.ID, "engine", mf.Engine, "want", serve.EngineVersion)
	}
	c.mu.Lock()
	n, ok := c.nodes[mf.ID]
	if !ok {
		n = &node{jobs: make(map[string]context.CancelCauseFunc)}
		c.nodes[mf.ID] = n
		c.log.Info("node joined", "node", mf.ID, "addr", mf.Addr, "engine", mf.Engine)
	}
	if n.cl == nil || n.mf.Addr != mf.Addr {
		n.cl = client.New(mf.Addr, c.http)
	}
	n.mf = *mf
	n.lastSeen = time.Now()
	c.mu.Unlock()
	c.wake() // a returning node may unblock pending work
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":                 true,
		"dead_after_seconds": c.cfg.DeadAfter.Seconds(),
	})
}

// nodeRows is the fleet table, by node ID.
func (c *Server) nodeRows() []client.NodeRow {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]client.NodeRow, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, client.NodeRow{
			ID:           n.mf.ID,
			Addr:         n.mf.Addr,
			Engine:       n.mf.Engine,
			Live:         now.Sub(n.lastSeen) <= c.cfg.DeadAfter,
			HeartbeatAge: now.Sub(n.lastSeen).Seconds(),
			Jobs:         len(n.jobs),
			Stats:        n.mf.Stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *Server) handleNodeList(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.nodeRows())
}

// errNodeLost is the cause an attempt is canceled with when its node's
// heartbeat expires.
var errNodeLost = errors.New("node heartbeat expired")

// monitorLoop watches heartbeat ages: attempts on a node that stopped
// heartbeating are canceled so their jobs fail over without waiting for
// the relay to notice (which still covers nodes that heartbeat but wedge
// their job API).
func (c *Server) monitorLoop(ctx context.Context) {
	defer close(c.monitorDone)
	interval := max(c.cfg.DeadAfter/4, 250*time.Millisecond)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, n := range c.nodes {
			age := now.Sub(n.lastSeen)
			if age > c.cfg.DeadAfter && len(n.jobs) > 0 {
				c.log.Warn("node heartbeat expired", "node", n.mf.ID,
					"age", age.Round(time.Millisecond), "jobs", len(n.jobs))
				for _, cancel := range n.jobs {
					cancel(errNodeLost)
				}
			}
		}
		c.mu.Unlock()
	}
}
