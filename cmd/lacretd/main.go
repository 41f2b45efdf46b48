// Command lacretd is the planning daemon: it serves concurrent
// interconnect-planning jobs over HTTP, so iterative workloads — many
// near-duplicate requests over the same netlist and floorplan — reuse one
// warm process and a content-addressed result cache instead of rebuilding
// the world per CLI invocation.
//
// Usage:
//
//	lacretd -addr localhost:8411 [-workers 4] [-queue 8] [-cache 64]
//	        [-data-dir /var/lib/lacretd] [-max-mem 2GiB] [-debug-addr localhost:8077]
//	        [-log-level info] [-log-format text]
//
// With -data-dir the daemon is crash-safe: accepted jobs are journaled
// (fsync before the 202), running plans checkpoint at stage boundaries,
// and a restarted daemon re-enqueues unfinished jobs under their original
// IDs, resuming each from its last checkpoint. -max-mem (default: the
// GOMEMLIMIT, if one is set) turns on admission control: above the
// high-water mark the daemon sheds its caches and answers 429.
//
// Submit, poll, stream, cancel:
//
//	curl -X POST localhost:8411/v1/jobs -d '{"source":{"circuit":"s400"},"config":{"seed":1}}'
//	curl localhost:8411/v1/jobs/<id>
//	curl -N localhost:8411/v1/jobs/<id>/events
//	curl -X DELETE localhost:8411/v1/jobs/<id>
//	curl localhost:8411/v1/stats
//
// SIGINT/SIGTERM drain gracefully: submissions are refused, in-flight jobs
// get -grace to finish (at the deadline their contexts are canceled and
// the anytime stages commit best-so-far), then the process exits.
//
// The daemon logs structured lines (log/slog) to stderr: every job
// transition carries the job ID and request digest, every HTTP request its
// route and status. -log-format json feeds a collector; -log-level debug
// adds per-request lines. The operational endpoints — /metrics
// (Prometheus text format), /healthz, /readyz — live on the main listener.
// -debug-addr adds /debug/pprof/ and a second /metrics over the same
// registry; its job_heap_bytes and job_goroutines gauges are refreshed
// only when the main listener's /metrics or /v1/stats is read.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"lacret/internal/job"
	"lacret/internal/obs"
	"lacret/internal/runcfg"
	"lacret/internal/service"
)

func main() {
	var (
		addr           = flag.String("addr", "localhost:8411", "HTTP listen address for the job API")
		workers        = flag.Int("workers", 0, "planning worker-pool size (0 = GOMAXPROCS)")
		queue          = flag.Int("queue", 0, "queued-job bound before submissions are rejected with 429 (0 = 2x workers)")
		cache          = flag.Int("cache", 64, "content-addressed result-cache entries (negative disables)")
		grace          = flag.Duration("grace", 30*time.Second, "drain window on SIGINT/SIGTERM before in-flight jobs are cut to best-so-far")
		debugAddr      = flag.String("debug-addr", "", "serve net/http/pprof and a second /metrics on this address (e.g. localhost:8077)")
		dataDir        = flag.String("data-dir", "", "durable state directory (job journal, checkpoints, reports); empty = in-memory only")
		maxMem         = flag.String("max-mem", "", "memory limit for admission control, e.g. 2GiB (empty = GOMEMLIMIT when set, else unlimited)")
		crashAfterCkpt = flag.Int("crash-after-checkpoint", 0, "TESTING: exit the process immediately after the Nth checkpoint save")
		logLevel       = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat      = flag.String("log-format", "text", "log encoding: text or json")
	)
	flag.Parse()

	logger, err := runcfg.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lacretd:", err)
		os.Exit(2)
	}
	fail := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	maxMemBytes, err := runcfg.ParseBytes(*maxMem)
	if err != nil {
		logger.Error("bad -max-mem", "error", err)
		os.Exit(2)
	}
	opts := job.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		DataDir:      *dataDir,
		MaxMemBytes:  maxMemBytes,
		Logger:       logger,
	}
	if n := *crashAfterCkpt; n > 0 {
		// The chaos harness: die exactly where a crash hurts most — right
		// after a checkpoint became durable, mid-plan. os.Exit skips every
		// deferred cleanup, like a SIGKILL would.
		var saves atomic.Int64
		opts.CheckpointNotify = func(id, stage string) {
			if int(saves.Add(1)) == n {
				logger.Error("crash-after-checkpoint tripped", "n", n, "stage", stage, "job", id)
				os.Exit(137)
			}
		}
	}
	mgr, err := job.Open(opts)
	if err != nil {
		fail("manager open failed", err)
	}
	if s := mgr.Stats(); s.Recovered > 0 {
		logger.Info("recovered unfinished jobs", "count", s.Recovered, "data_dir", *dataDir)
	}

	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, mgr.Registry())
		if err != nil {
			fail("debug listener failed", err)
		}
		defer ds.Close()
		logger.Info("debug listener up", "url", fmt.Sprintf("http://%s/debug/", ds.Addr()))
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen failed", err)
	}
	srv := service.HTTPServer("", service.New(mgr, service.WithLogger(logger)))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	logger.Info("lacretd serving", "workers", mgr.Workers(), "url", fmt.Sprintf("http://%s/v1/", lis.Addr()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fail("serve failed", err)
	}
	stop() // a second signal kills immediately instead of waiting the drain

	logger.Info("lacretd draining", "grace", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain order matters: the manager first, with HTTP still up, so
	// clients can poll their jobs to completion; then the listener.
	if err := mgr.Shutdown(dctx); err != nil {
		logger.Warn("drain window expired: in-flight jobs committed best-so-far")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer hcancel()
	_ = srv.Shutdown(hctx)
	logger.Info("lacretd stopped")
}
