// Command topoconload replays a corpus of scenario and template documents
// against a running topoconsvc instance and asserts service-level
// invariants — it is both a load generator and the CI persistence proof.
//
//	topoconload -addr http://127.0.0.1:8080 scenarios/*.json
//	topoconload -addr http://127.0.0.1:8080 -concurrency 8 \
//	    -min-disk-hit-rate 0.9 -max-constructions 0 scenarios/*.json
//
// Each file is submitted as one job (POST /v1/jobs); the client follows
// the job's event stream until it finishes, then fetches the report. At
// the end it fetches /metrics and /healthz and fails (exit 1) when:
//
//   - any job did not finish "done", any cell errored, or any pinned
//     verdict mismatched (unless -allow-errors),
//   - the done-cell disk-tier hit rate is below -min-disk-hit-rate,
//   - the service constructed more than -max-constructions Analyzer
//     sessions over its lifetime (-1 disables the bound),
//   - the service resumed fewer than -min-resumed-jobs jobs from a
//     predecessor's leftover checkpoint documents (-1 disables; with no
//     input files the client only asserts metrics, for post-restart CI),
//   - /healthz is not 200 after the run.
//
// 429 (queue full) submissions are retried with backoff, so the client
// can be run at a concurrency exceeding the service's queue.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"topocon/internal/retry"
)

type submitAck struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Cells int    `json:"cells"`
}

// jobView mirrors the svc wire form, loosely (only what the client reads).
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Report *struct {
		Cells []struct {
			Name      string `json:"name"`
			Status    string `json:"status"`
			Verdict   string `json:"verdict"`
			Match     *bool  `json:"match"`
			CacheTier string `json:"cacheTier"`
			Err       string `json:"error"`
		} `json:"cells"`
		Summary struct {
			Cells      int `json:"cells"`
			Done       int `json:"done"`
			Errors     int `json:"errors"`
			Cancelled  int `json:"cancelled"`
			Solvable   int `json:"solvable"`
			Impossible int `json:"impossible"`
			Unknown    int `json:"unknown"`
			Mismatches int `json:"mismatches"`
		} `json:"summary"`
	} `json:"report"`
}

type metricsView struct {
	Sessions struct {
		PoolSize             int   `json:"poolSize"`
		Busy                 int   `json:"busy"`
		AnalyzersConstructed int64 `json:"analyzersConstructed"`
	} `json:"sessions"`
	Cache struct {
		Keys       int   `json:"keys"`
		MemoryHits int64 `json:"memoryHits"`
		DiskHits   int64 `json:"diskHits"`
		Computes   int64 `json:"computes"`
	} `json:"cache"`
	Store *struct {
		Records     int `json:"records"`
		Quarantined int `json:"quarantined"`
	} `json:"store"`
	Paging *struct {
		JobsResumed  int64 `json:"jobsResumed"`
		PagesSpilled int64 `json:"pagesSpilled"`
		PagesFaulted int64 `json:"pagesFaulted"`
	} `json:"paging"`
}

// tally aggregates the replay outcome across jobs.
type tally struct {
	mu         sync.Mutex
	jobs       int
	jobsDone   int
	cellsDone  int
	diskCells  int
	memCells   int
	solvable   int
	impossible int
	unknown    int
	errors     int
	mismatches int
	failures   []string
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

func main() {
	var (
		addr           = flag.String("addr", "http://127.0.0.1:8080", "topoconsvc base URL")
		concurrency    = flag.Int("concurrency", 8, "concurrent submissions in flight")
		waitHealthy    = flag.Duration("wait-healthy", 30*time.Second, "how long to wait for /healthz before submitting")
		minDiskHitRate = flag.Float64("min-disk-hit-rate", -1, "minimum fraction of done cells served from the disk tier (-1 disables)")
		maxConstructs  = flag.Int64("max-constructions", -1, "maximum Analyzer constructions reported by /metrics (-1 disables)")
		allowErrors    = flag.Bool("allow-errors", false, "tolerate cell errors and verdict mismatches")
		minResumed     = flag.Int64("min-resumed-jobs", -1, "minimum jobs the service re-submitted from a predecessor's leftover documents, per /metrics (-1 disables); with no input files the client only asserts metrics")
		timeout        = flag.Duration("timeout", 2*time.Minute, "per-job completion deadline")
		verbose        = flag.Bool("v", false, "log each job as it completes")
	)
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 && *minResumed < 0 {
		fmt.Fprintln(os.Stderr, "topoconload: no input files")
		os.Exit(2)
	}
	base := strings.TrimRight(*addr, "/")

	if err := awaitHealthy(base, *waitHealthy); err != nil {
		fmt.Fprintf(os.Stderr, "topoconload: %v\n", err)
		os.Exit(1)
	}

	t := &tally{jobs: len(files)}
	sem := make(chan struct{}, max(1, *concurrency))
	var wg sync.WaitGroup
	for _, file := range files {
		wg.Add(1)
		go func(file string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			replay(base, file, *timeout, *verbose, t)
		}(file)
	}
	wg.Wait()

	m, err := fetchMetrics(base)
	if err != nil {
		t.fail("metrics: %v", err)
	}
	if code := probe(base + "/healthz"); code != http.StatusOK {
		t.fail("healthz after run: status %d", code)
	}

	diskRate := 0.0
	if t.cellsDone > 0 {
		diskRate = float64(t.diskCells) / float64(t.cellsDone)
	}
	fmt.Printf("topoconload: %d jobs (%d done), %d cells done: %d solvable / %d impossible / %d unknown, %d errors, %d mismatches\n",
		t.jobs, t.jobsDone, t.cellsDone, t.solvable, t.impossible, t.unknown, t.errors, t.mismatches)
	fmt.Printf("topoconload: cache tiers: %d disk / %d memory / %d computed cells (disk rate %.0f%%); service constructed %d analyzers, %d keys\n",
		t.diskCells, t.memCells, t.cellsDone-t.diskCells-t.memCells, 100*diskRate, m.Sessions.AnalyzersConstructed, m.Cache.Keys)
	if m.Store != nil {
		fmt.Printf("topoconload: store: %d records, %d quarantined\n", m.Store.Records, m.Store.Quarantined)
	}
	if m.Paging != nil {
		fmt.Printf("topoconload: paging: %d spilled / %d faulted; %d jobs resumed\n",
			m.Paging.PagesSpilled, m.Paging.PagesFaulted, m.Paging.JobsResumed)
	}

	if !*allowErrors && (t.errors > 0 || t.mismatches > 0) {
		t.fail("%d cell errors, %d verdict mismatches", t.errors, t.mismatches)
	}
	if t.jobsDone != t.jobs {
		t.fail("%d of %d jobs finished done", t.jobsDone, t.jobs)
	}
	if *minDiskHitRate >= 0 && diskRate < *minDiskHitRate {
		t.fail("disk-tier hit rate %.2f below required %.2f", diskRate, *minDiskHitRate)
	}
	if *maxConstructs >= 0 && m.Sessions.AnalyzersConstructed > *maxConstructs {
		t.fail("service constructed %d analyzers, bound is %d", m.Sessions.AnalyzersConstructed, *maxConstructs)
	}
	if *minResumed >= 0 {
		var resumed int64
		if m.Paging != nil {
			resumed = m.Paging.JobsResumed
		}
		if resumed < *minResumed {
			t.fail("service resumed %d jobs, required at least %d", resumed, *minResumed)
		}
	}
	if len(t.failures) > 0 {
		for _, f := range t.failures {
			fmt.Fprintf(os.Stderr, "topoconload: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("topoconload: OK")
}

// replay submits one file, follows its event stream to completion, and
// folds the job's report into the tally.
func replay(base, file string, timeout time.Duration, verbose bool, t *tally) {
	doc, err := os.ReadFile(file)
	if err != nil {
		t.fail("%s: %v", file, err)
		return
	}
	ack, err := submit(base, doc)
	if err != nil {
		t.fail("%s: submit: %v", file, err)
		return
	}
	// Follow the event stream: it blocks until the job's terminal event,
	// exercising the streaming path under load. Fall back to polling only
	// if the stream drops.
	followEvents(base, ack.ID)

	v, err := awaitJob(base, ack.ID, timeout)
	if err != nil {
		t.fail("%s (%s): %v", file, ack.ID, err)
		return
	}
	if verbose {
		fmt.Printf("topoconload: %s (%s) → %s\n", file, ack.ID, v.Status)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v.Status == "done" {
		t.jobsDone++
	} else {
		t.failures = append(t.failures, fmt.Sprintf("%s (%s): status %s %s", file, ack.ID, v.Status, v.Error))
	}
	if v.Report == nil {
		return
	}
	sum := v.Report.Summary
	t.cellsDone += sum.Done
	t.solvable += sum.Solvable
	t.impossible += sum.Impossible
	t.unknown += sum.Unknown
	t.errors += sum.Errors
	t.mismatches += sum.Mismatches
	for _, c := range v.Report.Cells {
		switch c.CacheTier {
		case "disk":
			t.diskCells++
		case "memory":
			t.memCells++
		}
		if c.Status == "error" {
			t.failures = append(t.failures, fmt.Sprintf("%s: cell %s: %s", file, c.Name, c.Err))
		}
	}
}

// submit POSTs the document, retrying queue-full responses with the
// shared capped-backoff-plus-jitter policy (internal/retry) so a client
// run at a concurrency exceeding the service's queue spreads its retries
// instead of hammering in lockstep. Everything except a 429 is permanent.
func submit(base string, doc []byte) (submitAck, error) {
	var ack submitAck
	policy := retry.Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Attempts: 100}
	err := retry.Do(context.Background(), policy, func(context.Context) error {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(doc)))
		if err != nil {
			return retry.Permanent(err)
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			if err := json.Unmarshal(body, &ack); err != nil {
				return retry.Permanent(err)
			}
			return nil
		case http.StatusTooManyRequests:
			return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		default:
			return retry.Permanent(fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body))))
		}
	})
	return ack, err
}

// followEvents drains the job's ndjson event stream until it closes
// (terminal event emitted) or errors; errors are tolerated — awaitJob is
// the source of truth for the outcome.
func followEvents(base, id string) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events?format=ndjson")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for scanner.Scan() {
	}
}

// awaitJob polls until the job reaches a terminal status.
func awaitJob(base, id string, timeout time.Duration) (jobView, error) {
	deadline := time.Now().Add(timeout)
	for {
		var v jobView
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return v, err
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return v, err
		}
		switch v.Status {
		case "done", "failed", "cancelled":
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("not finished after %v (status %s)", timeout, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func awaitHealthy(base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		if probe(base+"/healthz") == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not healthy after %v", base, patience)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func probe(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

func fetchMetrics(base string) (metricsView, error) {
	var m metricsView
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
