// Command topoconsvc is the always-on checker daemon: an HTTP/JSON
// service that accepts scenario and template submissions as jobs, runs
// them on a bounded global session pool, and serves verdicts from a
// persistent content-addressed store, so isomorphic questions are solved
// once per corpus — not once per process.
//
//	topoconsvc -addr :8080 -store-dir /var/lib/topocon/verdicts
//	topoconsvc -addr :8080 -store-dir ./verdicts -workers 4 -max-queue 128
//
// Endpoints (see docs/topoconsvc.md for the full reference):
//
//	POST /v1/jobs              submit a scenario or template JSON document
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status and report
//	GET  /v1/jobs/{id}/events  progress stream (SSE; ?format=ndjson)
//	GET  /v1/verdicts/{key}    one verdict by canonical sweep key
//	GET  /healthz              liveness
//	GET  /metrics              JSON counters
//
// SIGINT/SIGTERM shut the daemon down gracefully: submissions get 503,
// in-flight jobs wind down to well-formed partial reports, and the
// process exits once the runners drain (or the grace period elapses).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"topocon/internal/faultfs"
	"topocon/internal/svc"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		storeDir    = flag.String("store-dir", "", "persistent verdict store directory (required)")
		workers     = flag.Int("workers", 2, "global session pool: max concurrently running Analyzer sessions across all jobs")
		maxQueue    = flag.Int("max-queue", 64, "max jobs accepted but not yet running; beyond it submissions get 429")
		maxBody     = flag.Int64("max-body-bytes", 1<<20, "max submission body size in bytes")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell analysis wall-time budget (0 = unbounded)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job wall-time budget (0 = unbounded)")
		grace       = flag.Duration("grace", 30*time.Second, "shutdown grace period for draining in-flight jobs")
		ckptDir     = flag.String("checkpoint-dir", "", "durability directory: accepted job documents, re-submitted at startup if left unfinished, plus scratch space where solving cells page their frontiers (cells never checkpoint: an unfinished cell is recomputed) and, with -worker-id, cell leases (empty = off)")
		hotBytes    = flag.Int64("pager-hot-bytes", 0, "per-cell frontier hot-set budget in bytes; colder rounds spill under -checkpoint-dir (0 = unlimited; needs -checkpoint-dir)")
		workerID    = flag.String("worker-id", "", "coordinated worker mode: this daemon's id in a fleet sharing one -store-dir/-checkpoint-dir; enables the /v1/cells claim endpoints (needs -checkpoint-dir)")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "cell-lease duration in coordinated worker mode; claims renew every third of it")
		faultSpec   = flag.String("fault", "", "deterministic fault-injection schedule for chaos testing, e.g. 'fail:lease:2,stall:horizon:3' (see internal/faultfs)")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "topoconsvc: -store-dir is required (the daemon exists to persist verdicts)")
		flag.Usage()
		os.Exit(2)
	}
	if *workerID != "" && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "topoconsvc: -worker-id needs -checkpoint-dir (the fleet's cell leases live there)")
		flag.Usage()
		os.Exit(2)
	}
	if *hotBytes != 0 && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "topoconsvc: -pager-hot-bytes needs -checkpoint-dir (pages spill there)")
		flag.Usage()
		os.Exit(2)
	}
	faults, err := faultfs.Parse(*faultSpec)
	if err != nil {
		log.Fatalf("topoconsvc: %v", err)
	}

	service, err := svc.New(svc.Config{
		StoreDir:      *storeDir,
		Workers:       *workers,
		MaxQueue:      *maxQueue,
		MaxBodyBytes:  *maxBody,
		CellTimeout:   *cellTimeout,
		JobTimeout:    *jobTimeout,
		CheckpointDir: *ckptDir,
		PagerHotBytes: *hotBytes,
		WorkerID:      *workerID,
		LeaseTTL:      *leaseTTL,
		Faults:        faults,
	})
	if err != nil {
		log.Fatalf("topoconsvc: %v", err)
	}
	st := service.Store().Stats()
	log.Printf("topoconsvc: store %s: %d verdicts (%d bytes), %d quarantined", st.Dir, st.Records, st.Bytes, st.Quarantined)
	if *ckptDir != "" {
		if m := service.Metrics(); m.Paging != nil && m.Paging.JobsResumed > 0 {
			log.Printf("topoconsvc: checkpoint dir %s: re-submitted %d unfinished job(s)", *ckptDir, m.Paging.JobsResumed)
		} else {
			log.Printf("topoconsvc: checkpoint dir %s: no unfinished jobs", *ckptDir)
		}
	}
	if *workerID != "" {
		log.Printf("topoconsvc: coordinated worker %q (lease TTL %v)", *workerID, *leaseTTL)
	}

	server := &http.Server{Addr: *addr, Handler: service.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("topoconsvc: listening on %s (workers %d, queue %d)", *addr, *workers, *maxQueue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("topoconsvc: %v: draining (grace %v)", sig, *grace)
	case err := <-errc:
		log.Fatalf("topoconsvc: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := service.Shutdown(ctx); err != nil {
		log.Printf("topoconsvc: %v", err)
	}
	if err := server.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("topoconsvc: http shutdown: %v", err)
	}
	st = service.Store().Stats()
	log.Printf("topoconsvc: stopped; store holds %d verdicts", st.Records)
}
