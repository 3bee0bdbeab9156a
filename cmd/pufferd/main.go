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
// Besides one-shot jobs, the daemon serves interactive ECO sessions as jobs
// of kind session: the job places the design once (cold place) and stays
// open, and each delta posted to /api/v1/jobs/{id}/deltas re-places it
// from its last placement in a fraction of the cold wall. Session warm
// state idle longer than -session-idle is evicted (the session parks: the
// spooled snapshot remains, and the next delta rehydrates it).
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops admitting
// (submissions get 503), cancels running jobs so they park at their last
// checkpoint, parks open ECO sessions at their last applied delta, and
// exits once idle or -drain-timeout expires. Submit and watch jobs with
// cmd/pufferctl.
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

	"puffer/internal/obs"
	"puffer/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening")
		spool        = flag.String("spool", "pufferd-spool", "job spool directory (durable; holds manifests, checkpoints, artifacts)")
		queueCap     = flag.Int("queue", 0, "admission queue capacity; excess submissions get 429 + Retry-After (0 = 16)")
		workers      = flag.Int("workers", 2, "job worker pool size")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job deadline for jobs that set none (0 = none)")
		sessionIdle  = flag.Duration("session-idle", 15*time.Minute, "evict an ECO session's in-memory warm state after this idle time (snapshot stays; 0 = never)")
		queueSLO     = flag.Duration("queue-slo", time.Minute, "queue-wait p99 SLO bound (/readyz reports 503 while it burns)")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long to wait for running jobs to park on shutdown")
		drainGrace   = flag.Duration("drain-grace", 0, "hold /readyz at 503 this long before parking jobs on shutdown (lets load balancers drain)")
		verbose      = flag.Bool("v", true, "log job lifecycle events")
		debugLog     = flag.Bool("log-debug", false, "also log per-request and probe lines")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant queue rate limit in jobs/sec (0 = unlimited)")
		tenantBurst  = flag.Int("tenant-burst", 4, "per-tenant queue burst")
	)
	flag.Parse()

	// Structured logs on stderr: every record under a request or worker
	// carries trace/span/job attrs (obs.LogHandler). -v=false keeps
	// only warnings; -log-debug adds the per-request lines.
	level := slog.LevelInfo
	switch {
	case *debugLog:
		level = slog.LevelDebug
	case !*verbose:
		level = slog.LevelWarn
	}
	logger := obs.NewLogger(os.Stderr, level)

	srv, err := serve.New(serve.Config{
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
	})
	if err != nil {
		log.Fatal(err)
	}
	if srv.Recovered > 0 {
		logger.Info("recovered interrupted jobs", "count", srv.Recovered, "spool", *spool)
	}
	if srv.RecoveredSessions > 0 {
		logger.Info("parked ECO sessions; next delta rehydrates", "count", srv.RecoveredSessions)
	}
	srv.Start()

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
	fmt.Printf("pufferd listening on %s (spool %s, %d workers, queue %d)\n", bound, *spool, *workers, srv.QueueCap())

	hsrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			logger.Error("drain", "error", err)
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		hsrv.Shutdown(shutCtx)
		logger.Info("drained; interrupted jobs resume on next start")
	case err := <-errCh:
		log.Fatalf("pufferd: serve: %v", err)
	}
}
