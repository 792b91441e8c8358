// Command topoconcoord runs one template sweep across a fleet of
// topoconsvc workers: it expands the grid locally, dispatches each cell
// to a worker's claim endpoint (POST /v1/cells/{key}/claim), survives
// worker crashes by letting peers steal expired leases and recompute the
// dead worker's cells, and writes the merged report — cells in grid
// order, as if one process had run the sweep.
//
//	topoconcoord -workers http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -lease-ttl 2s scenarios/sweep-lossbound-n2.json
//
// The merged report JSON goes to stdout (or -out); dispatch statistics go
// to stderr. Exit status: 0 on success, 1 when the run failed, any cell
// ended in error (unless -allow-errors), or fewer than -min-steals cells
// were stolen (the chaos-test assertion), 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"topocon/internal/coord"
	"topocon/internal/scenario"
	"topocon/internal/sweep"
)

func main() {
	var (
		workers     = flag.String("workers", "", "comma-separated worker base URLs (required)")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "per-cell lease duration; dead workers' cells become stealable after this long")
		maxAttempts = flag.Int("max-attempts", 4, "per-cell circuit breaker: failed dispatches before the cell is recorded as a terminal error")
		dispatchers = flag.Int("dispatchers", 0, "cells in flight at once (0: two per worker)")
		timeout     = flag.Duration("timeout", 0, "whole-run wall-time budget (0: unbounded)")
		out         = flag.String("out", "", "write the merged report JSON here instead of stdout")
		table       = flag.Bool("table", false, "print the human-readable table to stderr as well")
		normalize   = flag.Bool("normalize", false, "zero timing fields in the report (for golden comparisons)")
		allowErrors = flag.Bool("allow-errors", false, "exit 0 even when cells ended in error")
		minSteals   = flag.Int("min-steals", 0, "fail unless at least this many cells were stolen from dead workers (chaos-test assertion)")
	)
	flag.Parse()
	if *workers == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: topoconcoord -workers URL[,URL...] [flags] template.json")
		flag.Usage()
		os.Exit(2)
	}
	fleet := strings.Split(*workers, ",")
	for i := range fleet {
		fleet[i] = strings.TrimRight(strings.TrimSpace(fleet[i]), "/")
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatalf("topoconcoord: %v", err)
	}
	if !scenario.IsTemplate(data) {
		log.Fatalf("topoconcoord: %s is not a template (no params block); the coordinator sweeps grids", flag.Arg(0))
	}
	tpl, err := scenario.ParseTemplate(data)
	if err != nil {
		log.Fatalf("topoconcoord: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	log.Printf("topoconcoord: sweeping %s (%d cells) across %d workers", tpl.Name, tpl.CellCount(), len(fleet))
	rep, stats, err := coord.Run(ctx, tpl, coord.Config{
		Workers:     fleet,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		Dispatchers: *dispatchers,
		OnCell: func(res sweep.CellResult) {
			suffix := ""
			if res.StolenFrom != "" {
				suffix = fmt.Sprintf(" (stolen from %s)", res.StolenFrom)
			}
			log.Printf("topoconcoord: cell %s: %s on %s attempt %d%s", res.Name, res.Status, res.Worker, res.Attempt, suffix)
		},
	})
	if err != nil {
		log.Fatalf("topoconcoord: %v", err)
	}
	if *normalize {
		rep.Normalize()
	}

	doc, err := rep.JSON()
	if err != nil {
		log.Fatalf("topoconcoord: encoding report: %v", err)
	}
	doc = append(doc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			log.Fatalf("topoconcoord: %v", err)
		}
	} else {
		os.Stdout.Write(doc)
	}
	if *table {
		fmt.Fprint(os.Stderr, rep.Table())
	}

	s := rep.Summary
	log.Printf("topoconcoord: done %d/%d cells (errors %d, cancelled %d); dispatched %d (%d retries), stole %d, breaker trips %d, dead workers %d",
		s.Done, s.Cells, s.Errors, s.Cancelled, stats.Dispatched, stats.Retries, stats.Steals, stats.BreakerTrips, stats.DeadWorkers)

	fail := false
	if s.Errors > 0 && !*allowErrors {
		log.Printf("topoconcoord: FAIL: %d cells ended in error", s.Errors)
		fail = true
	}
	if s.Cancelled > 0 {
		log.Printf("topoconcoord: FAIL: %d cells cancelled", s.Cancelled)
		fail = true
	}
	if s.Mismatches > 0 {
		log.Printf("topoconcoord: FAIL: %d pinned verdicts mismatched", s.Mismatches)
		fail = true
	}
	if stats.Steals < *minSteals {
		log.Printf("topoconcoord: FAIL: stole %d cells, want >= %d", stats.Steals, *minSteals)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}
