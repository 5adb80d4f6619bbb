// Command xhybridd serves the hybrid partition/plan pipeline as a
// long-running HTTP/JSON service (see internal/server and the README's API
// reference).
//
// Usage:
//
//	xhybridd [-addr :8471] [-cache-bytes N] [-queue 64]
//	         [-concurrency N] [-job-workers N] [-job-timeout 60s]
//	         [-drain 30s] [-spool DIR] [-checkpoint-every K]
//
// Endpoints:
//
//	POST /v1/partition   X-map in the body (JSON, text or binary XMAPB,
//	                     optionally gzip-compressed); options m, q,
//	                     strategy, seed, rounds, workers, verbose,
//	                     format=json|text as query parameters. format=text
//	                     bodies are byte-identical to `xhybrid partition`
//	                     stdout.
//	POST /v1/analyze     Section 3 correlation analysis of the posted X-map.
//	GET  /healthz        liveness probe.
//	GET  /metrics        Prometheus text exposition of every server and
//	                     pipeline counter (cache hits/misses, queue depth,
//	                     rounds, splits scored, stage spans, ...).
//	GET  /debug/pprof/   live profiling of the serving process.
//
// At most -concurrency partition jobs compute at once and at most -queue
// requests wait for a slot, granted in arrival order; a request beyond
// that gets 503 with Retry-After. Computed plans are kept in an in-memory
// LRU of -cache-bytes.
//
// With -spool DIR the async jobs API comes up as well: submissions are
// spooled to DIR, checkpoint every -checkpoint-every accepted rounds, and
// survive restarts — on startup every unfinished spooled job resumes from
// its last good checkpoint and finishes with the byte-identical plan.
//
//	POST   /v1/jobs             submit (same body/options as /v1/partition,
//	                            plus checkpoint=K); answers 202 + job record.
//	POST   /v1/flow             submit an end-to-end circuit flow (body is a
//	                            flow.Spec JSON: seeds + geometry + options;
//	                            docs/FLOW.md). Same job lifecycle as
//	                            /v1/jobs; the result is the flow report and
//	                            the SSE stream announces each stage.
//	GET    /v1/jobs             list spooled jobs.
//	GET    /v1/jobs/{id}        status with live per-round progress.
//	GET    /v1/jobs/{id}/result finished plan (format=json|text).
//	GET    /v1/jobs/{id}/events live progress stream (Server-Sent Events).
//	DELETE /v1/jobs/{id}        cancel.
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener closes and
// in-flight jobs drain for up to -drain before the process exits. Spooled
// async jobs are interrupted resumably — the next start picks them up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"xhybrid/internal/jobs"
	"xhybrid/internal/obs"
	"xhybrid/internal/server"
)

func main() {
	addr := flag.String("addr", ":8471", "listen address")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "in-memory result-cache budget in bytes (negative disables)")
	queue := flag.Int("queue", 64, "max requests waiting for a job slot")
	concurrency := flag.Int("concurrency", 0, "max partition jobs computing at once (0 = all CPUs)")
	jobWorkers := flag.Int("job-workers", 0, "worker-goroutine ceiling per job (0 = all CPUs)")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job compute deadline (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight jobs")
	spool := flag.String("spool", "", "directory for durable async jobs (empty disables /v1/jobs)")
	checkpointEvery := flag.Int("checkpoint-every", 8, "default async-job checkpoint cadence in accepted rounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "xhybridd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	rec := obs.New()
	var mgr *jobs.Manager
	if *spool != "" {
		var err error
		mgr, err = jobs.Open(*spool, jobs.Config{
			MaxConcurrent:   effective(*concurrency),
			MaxQueue:        *queue,
			CheckpointEvery: *checkpointEvery,
			Obs:             rec,
		})
		if err != nil {
			log.Fatalf("xhybridd: open spool: %v", err)
		}
		log.Printf("xhybridd: job spool at %s (checkpoint every %d rounds)", *spool, *checkpointEvery)
	}

	srv, err := server.New(server.Config{
		CacheBytes:       *cacheBytes,
		MaxConcurrent:    *concurrency,
		MaxQueue:         *queue,
		MaxWorkersPerJob: *jobWorkers,
		JobTimeout:       *jobTimeout,
		DrainTimeout:     *drain,
		Jobs:             mgr,
		Obs:              rec,
	})
	if err != nil {
		log.Fatalf("xhybridd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("xhybridd: listening on %s (cache-bytes=%d queue=%d concurrency=%d)",
		*addr, *cacheBytes, *queue, effective(*concurrency))
	err = srv.ListenAndServe(ctx, *addr)
	if mgr != nil {
		// Interrupt async jobs resumably: spooled state stays non-terminal
		// and the next start recovers every unfinished job.
		mgr.Stop()
	}
	if err != nil {
		log.Fatalf("xhybridd: %v", err)
	}
	log.Printf("xhybridd: drained, bye")
}

func effective(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
