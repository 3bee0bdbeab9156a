// Package coord is what a fleet adds to the job service: internal/serve is
// the only job-service core — HTTP front, admission, queue, spool,
// recovery, drain, event streams — and a coordinator is that core running
// over this package's serve.Fleet instead of the in-process worker pool.
// Workers are unmodified standalone daemons that announce themselves over
// HTTP; the coordinator talks to them through internal/client, the same
// client pufferctl uses.
//
// The package layers are:
//
//	node.go   — fleet membership: NodeManifest, ParseNodeManifest, Announcer,
//	            the node registry, the heartbeat monitor, the /api/v1/nodes routes
//	coord.go  — Server: construction, lifecycle, the content-addressing
//	            admission hook and the result cache
//	remote.go — the remote backend: pick a node, dispatch, relay the worker's
//	            events into the job's hub, mirror checkpoints, fail over,
//	            fetch artifacts, merge traces
//	farm.go   — the runner of distributed explorations (an xfarm controller
//	            whose trials are ordinary submissions to the core)
package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"puffer/internal/cas"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// Config configures a coordinator.
type Config struct {
	// Config is the core's: the coordinator's own spool (manifests,
	// mirrored checkpoints, fetched artifacts — same layout as a worker
	// spool), the queue cap and tenant rate limits in front of dispatch,
	// the drain grace, the log.
	serve.Config
	// CASDir is the content-addressed store root (default: SpoolDir/cas).
	CASDir string
	// DeadAfter is the heartbeat age past which a node is considered dead
	// and its jobs fail over (default 10s).
	DeadAfter time.Duration
	// Poll paces re-checks of a worker whose event stream broke off
	// without a verdict (default 1s).
	Poll time.Duration
	// EarlyStopMargin is the domination factor for exploration early stop:
	// a trial is canceled once its streamed overflow exceeds this multiple
	// of the best competitor's at the same step (0 = xfarm's default 1.5).
	EarlyStopMargin float64
	// Client is the HTTP client for worker calls (default 15s timeout;
	// event streams and artifact bodies reuse its transport without it).
	Client *http.Client
}

// Server is the fleet coordinator: the embedded core serves the API and
// owns every job's lifecycle; this type is its serve.Fleet. Construct with
// New, start with Start, attach the HTTP surface via Handler, stop with
// Drain/Close.
type Server struct {
	*serve.Server
	cfg   Config
	store *cas.Store
	log   *slog.Logger
	http  *http.Client

	hDispatch *obs.Histogram // node picked → worker 202

	stopMonitor context.CancelFunc
	monitorDone chan struct{}
	kick        chan struct{} // nudges Acquire: a node joined, freed up, or came back

	mu    sync.Mutex
	nodes map[string]*node
}

// New opens the CAS store and builds the core over it. The core's recovery
// re-admits queued jobs, re-attaches jobs still running on a worker, and
// restarts exploration controllers — all launched by Start.
func New(cfg Config) (*Server, error) {
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 10 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Second
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 15 * time.Second}
	}
	if cfg.CASDir == "" {
		cfg.CASDir = cfg.SpoolDir + "/cas"
	}
	store, err := cas.Open(cfg.CASDir)
	if err != nil {
		return nil, err
	}
	c := &Server{
		cfg:         cfg,
		store:       store,
		log:         cfg.Log,
		http:        cfg.Client,
		monitorDone: make(chan struct{}),
		kick:        make(chan struct{}, 1),
		nodes:       make(map[string]*node),
	}
	if c.Server, err = serve.NewFleet(cfg.Config, c); err != nil {
		return nil, err
	}
	c.hDispatch = c.Registry().Histogram("coord.dispatch_seconds")
	return c, nil
}

// Store exposes the coordinator's CAS store (diagnostics).
func (c *Server) Store() *cas.Store { return c.store }

// Start launches the core and the node liveness monitor.
func (c *Server) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.stopMonitor = cancel
	go c.monitorLoop(ctx)
	c.Server.Start()
}

// Drain drains the core — dispatched jobs are left running on their
// workers with node and remote ID recorded, to be re-attached at the next
// boot — then stops the monitor.
func (c *Server) Drain(ctx context.Context) error {
	err := c.Server.Drain(ctx)
	if c.stopMonitor != nil {
		c.stopMonitor()
		<-c.monitorDone
		c.stopMonitor = nil
	}
	return err
}

// Close force-stops the coordinator.
func (c *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.Drain(ctx)
	c.Server.Close()
	return err
}

// Mount adds the fleet routes to the core's mux.
func (c *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/nodes", c.handleNodePost)
	mux.HandleFunc("GET /api/v1/nodes", c.handleNodeList)
}

// Ops reports the coordinator's additions to /healthz and /api/v1/ops.
func (c *Server) Ops(full bool) map[string]any {
	doc := map[string]any{"role": "coordinator", "nodes_live": c.LiveNodes()}
	if full {
		idx := c.store.Snapshot()
		var blobBytes int64
		for _, b := range idx.Blobs {
			blobBytes += b.Size
		}
		doc["nodes"] = c.nodeRows()
		doc["cache"] = map[string]int64{
			"blobs": int64(len(idx.Blobs)), "blob_bytes": blobBytes, "results": int64(len(idx.Results)),
		}
	}
	return doc
}

// blobBacked reports whether m's design lives in the store (an upload
// whose files were stripped from the manifest at admission).
func blobBacked(m *serve.Manifest) bool {
	return strings.HasPrefix(m.DesignDigest, "sha256-") && m.Spec.Profile == "" && len(m.Spec.Bookshelf) == 0
}

// Admit is the core's pre-queue hook: content-address the submission
// (design blob or profile identity, normalized result-determining
// config), answer it from the result cache when a byte-equivalent job
// already ran, and otherwise move an upload out of the manifest into the
// store, pinned by a reference until the job finishes.
func (c *Server) Admit(m *serve.Manifest) (undo func(), err error) {
	spec := &m.Spec
	if m.Tenant == "" {
		m.Tenant = serve.DefaultTenant
	}
	var design cas.Digest
	if len(spec.Bookshelf) > 0 {
		blob, err := cas.EncodeBookshelf(spec.Bookshelf)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", serve.ErrInvalidSpec, err)
		}
		d, _, err := c.store.Put(blob)
		if err != nil {
			return nil, fmt.Errorf("store design: %w", err)
		}
		design = d
	} else {
		design = cas.ProfileDesignDigest(spec.Profile, spec.Scale, spec.Seed)
	}
	config, err := cas.Config{
		Kind:        spec.Kind,
		MaxIters:    spec.MaxIters,
		Route:       spec.Route,
		Budget:      spec.Budget,
		Seed:        spec.Seed,
		Strategy:    spec.Strategy,
		Distributed: spec.Distributed,
		EarlyStop:   spec.EarlyStop,
	}.Digest()
	if err != nil {
		return nil, fmt.Errorf("%w: config digest: %v", serve.ErrInvalidSpec, err)
	}
	m.DesignDigest, m.ConfigDigest = string(design), string(config)
	defer c.publishCacheRate()

	// Early-stop explorations are timing dependent, so they neither
	// consult nor (see Explore) fill the cache.
	if !spec.NoCache && !spec.EarlyStop {
		if hit, origin, ok := c.cacheHit(design, config); ok {
			now := time.Now()
			m.State = serve.StateDone
			m.CacheHit = true
			m.Origin = hit.Job
			m.ResultDigest = string(hit.ResultDigest)
			m.FinishedAt = &now
			m.Result, m.Stage = origin.Result, origin.Stage
			spec.Bookshelf = nil
			c.Registry().Counter("coord.cache_hits").Inc()
			return nil, nil
		}
	}
	c.Registry().Counter("coord.cache_misses").Inc()
	if len(spec.Bookshelf) == 0 {
		return nil, nil
	}
	// The blob is the upload's durable home; the manifest carries only its
	// digest. A ref pins it against GC until the job finishes.
	if err := c.store.AddRef(design); err != nil {
		return nil, err
	}
	spec.Bookshelf = nil
	return func() {
		if err := c.store.Release(design); err != nil {
			c.log.Warn("design blob release failed", "job", m.ID, "error", err)
		}
	}, nil
}

// cacheHit looks up a usable cached result: the index entry must still
// have a readable done manifest behind it (a pruned spool drops the entry
// rather than serving a dangling hit).
func (c *Server) cacheHit(design, config cas.Digest) (cas.ResultEntry, *serve.Manifest, bool) {
	e, ok := c.store.Result(design, config, serve.EngineVersion)
	if !ok {
		return e, nil, false
	}
	origin, err := c.Spool().ReadManifest(e.Job)
	if err != nil || origin.State != serve.StateDone {
		c.store.DropResult(design, config, serve.EngineVersion)
		return e, nil, false
	}
	return e, origin, true
}

func (c *Server) publishCacheRate() {
	hits := float64(c.Registry().Counter("coord.cache_hits").Value())
	misses := float64(c.Registry().Counter("coord.cache_misses").Value())
	if hits+misses > 0 {
		c.Registry().Gauge("coord.cache_hit_rate").Set(hits / (hits + misses))
	}
}

// Finished is the core's post-terminal hook: the design reference is
// released and a computed result enters the cache index. It runs after the
// done manifest is durable — cacheHit trusts only entries with one behind
// them.
func (c *Server) Finished(m *serve.Manifest) {
	if blobBacked(m) {
		if err := c.store.Release(cas.Digest(m.DesignDigest)); err != nil {
			c.log.Warn("design blob release failed", "job", m.ID, "error", err)
		}
	}
	if m.State != serve.StateDone || m.ResultDigest == "" {
		return
	}
	e := cas.ResultEntry{
		Design:       cas.Digest(m.DesignDigest),
		Config:       cas.Digest(m.ConfigDigest),
		Engine:       serve.EngineVersion,
		Job:          m.ID,
		ResultDigest: cas.Digest(m.ResultDigest),
	}
	if m.Result != nil {
		e.HPWL = m.Result.HPWL
	}
	if err := c.store.PutResult(e); err != nil {
		c.log.Warn("result cache record failed", "job", m.ID, "error", err)
	}
}

// resultDigest content-addresses a result for the cache index. The
// wall-clock field is excluded so two runs of the same (design, config,
// engine) triple hash identically; jobs without content addresses (or
// results) have no digest.
func resultDigest(m *serve.Manifest, r *serve.JobResult) string {
	if r == nil || m.DesignDigest == "" || m.ConfigDigest == "" {
		return ""
	}
	canon := *r
	canon.RuntimeMS = 0
	data, err := json.Marshal(canon)
	if err != nil {
		return ""
	}
	return string(cas.Sum(data))
}
