// Command pufferd is the PUFFER placement job daemon: an HTTP service that
// admits placement and strategy-exploration jobs through a bounded queue,
// runs them on a worker pool with per-stage checkpointing into a spool
// directory, streams live progress as server-sent events, and survives
// restarts — interrupted jobs are re-admitted and resumed from their last
// stage-boundary checkpoint.
//
// Usage:
//
//	pufferd -addr :8080 -spool /var/lib/pufferd -workers 4 -queue 32
//
// Besides one-shot jobs, the daemon serves interactive ECO sessions under
// /api/v1/sessions: open a design once (cold place), then stream small
// deltas against the warm engine state — each re-places in a fraction of
// the cold wall. Session warm state idle longer than -session-idle is
// evicted (the spooled snapshot remains; the next delta rehydrates it).
//
// Fleet mode: `pufferd -coordinator` runs the same job service over a fleet
// of workers instead of the local pool — it owns a content-addressed result
// cache and dispatches submissions to registered workers. A worker joins a fleet with
// `pufferd -join http://coord:9090 -advertise http://me:8080`; it
// heartbeats its load to the coordinator and otherwise behaves exactly as
// stand-alone (the coordinator speaks the same job API any client does).
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops admitting
// (submissions get 503), cancels running jobs so they park at their last
// checkpoint (a coordinator leaves dispatched jobs running on their
// workers and re-attaches at the next boot), parks open ECO sessions at
// their last applied delta, and exits once idle or -drain-timeout expires. Submit and watch
// jobs with cmd/pufferctl.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"puffer/internal/coord"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening")
		spool        = flag.String("spool", "pufferd-spool", "job spool directory (durable; holds manifests, checkpoints, artifacts)")
		queueCap     = flag.Int("queue", 0, "admission queue capacity; excess submissions get 429 + Retry-After (0 = 16, or 64 with -coordinator)")
		workers      = flag.Int("workers", 2, "job worker pool size")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job deadline for jobs that set none (0 = none)")
		sessionIdle  = flag.Duration("session-idle", 15*time.Minute, "evict an ECO session's in-memory warm state after this idle time (snapshot stays; 0 = never)")
		queueSLO     = flag.Duration("queue-slo", time.Minute, "queue-wait p99 SLO bound (/readyz reports 503 while it burns)")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long to wait for running jobs to park on shutdown")
		drainGrace   = flag.Duration("drain-grace", 0, "hold /readyz at 503 this long before parking jobs on shutdown (lets load balancers drain)")
		verbose      = flag.Bool("v", true, "log job lifecycle events")
		debugLog     = flag.Bool("log-debug", false, "also log per-request and probe lines")

		// Fleet: worker side.
		join      = flag.String("join", "", "coordinator base URL to register this worker with (fleet mode)")
		advertise = flag.String("advertise", "", "URL workers advertise to the coordinator (default http://<bound addr>)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "heartbeat period when joined to a coordinator")
		nodeID    = flag.String("node-id", "", "stable node ID for fleet registration (default: hostname)")

		// Fleet: coordinator side.
		coordinator = flag.Bool("coordinator", false, "run as the fleet coordinator instead of a worker")
		casDir      = flag.String("cas", "", "content-addressed store directory (coordinator; default <spool>/cas)")
		deadAfter   = flag.Duration("dead-after", 10*time.Second, "heartbeat age past which a worker is dead and its jobs fail over (coordinator)")
		poll        = flag.Duration("poll", time.Second, "re-check interval for a worker whose event stream broke off (coordinator)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant queue rate limit in jobs/sec (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 4, "per-tenant queue burst")
		estopMargin = flag.Float64("early-stop-margin", 0, "exploration early-stop domination margin over the best trial's overflow envelope (coordinator; 0 = default 1.5)")
	)
	flag.Parse()

	// Structured logs on stderr: every record under a request or worker
	// carries trace/span/job/session attrs (obs.LogHandler). -v=false keeps
	// only warnings; -log-debug adds the per-request lines.
	level := slog.LevelInfo
	switch {
	case *debugLog:
		level = slog.LevelDebug
	case !*verbose:
		level = slog.LevelWarn
	}
	logger := obs.NewLogger(os.Stderr, level)

	if *coordinator && *join != "" {
		log.Fatal("pufferd: -coordinator and -join are mutually exclusive")
	}

	// One daemon interface over both roles: a coordinator is the same
	// job-service core running over the fleet instead of the local pool.
	type daemon interface {
		Start()
		Handler() http.Handler
		Drain(context.Context) error
	}
	core := serve.Config{
		SpoolDir:          *spool,
		QueueCap:          *queueCap,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		Workers:           *workers,
		DefaultJobTimeout: *jobTimeout,
		SessionIdle:       *sessionIdle,
		QueueWaitSLO:      *queueSLO,
		DrainGrace:        *drainGrace,
		Log:               logger,
	}
	var (
		d      daemon
		srv    *serve.Server
		err    error
		role   string
		detail = fmt.Sprintf("%d workers", *workers)
	)
	if *coordinator {
		var cs *coord.Server
		cs, err = coord.New(coord.Config{
			Config:          core,
			CASDir:          *casDir,
			DeadAfter:       *deadAfter,
			Poll:            *poll,
			EarlyStopMargin: *estopMargin,
		})
		if err == nil {
			d, srv = cs, cs.Server
		}
		role, detail = " coordinator", fmt.Sprintf("dead-after %s", *deadAfter)
	} else if srv, err = serve.New(core); err == nil {
		d = srv
	}
	if err != nil {
		log.Fatal(err)
	}
	detail += fmt.Sprintf(", queue %d", srv.Stats().QueueCap)
	if srv.Recovered > 0 {
		logger.Info("recovered interrupted jobs", "count", srv.Recovered, "spool", *spool)
	}
	if srv.RecoveredSessions > 0 {
		logger.Info("parked ECO sessions; next delta rehydrates", "count", srv.RecoveredSessions)
	}
	d.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	// The listening line is a stable interface: scripts scrape the port.
	fmt.Printf("pufferd%s listening on %s (spool %s, %s)\n", role, bound, *spool, detail)

	// Joined to a fleet: announce until shutdown. The manifest callback
	// snapshots live load per heartbeat so dispatch sees fresh depth.
	annCtx, annCancel := context.WithCancel(context.Background())
	defer annCancel()
	if *join != "" {
		id := *nodeID
		if id == "" {
			if h, err := os.Hostname(); err == nil {
				id = h
			} else {
				id = "worker-" + bound
			}
		}
		adv := *advertise
		if adv == "" {
			adv = "http://" + bound
		}
		ann := &coord.Announcer{
			Coordinator: *join,
			Interval:    *heartbeat,
			Log:         logger,
			Manifest: func() coord.NodeManifest {
				return coord.NodeManifest{
					Format: coord.NodeManifestFormat,
					ID:     id,
					Addr:   adv,
					Engine: serve.EngineVersion,
					Stats:  srv.Stats(),
				}
			},
		}
		go ann.Run(annCtx)
		logger.Info("joined fleet", "coordinator", *join, "node", id, "advertise", adv)
	}

	hsrv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			logger.Error("drain", "error", err)
		}
		annCancel() // last heartbeats already carried Draining stats
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		hsrv.Shutdown(shutCtx)
		logger.Info("drained; interrupted jobs resume on next start")
	case err := <-errCh:
		log.Fatalf("pufferd: serve: %v", err)
	}
}
