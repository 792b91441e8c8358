// Package svc is the topoconsvc service core: an HTTP/JSON checker daemon
// over the sweep engine and the persistent verdict store. It accepts
// concrete-scenario and template submissions as jobs, runs them on a
// bounded global session pool, streams per-cell and per-horizon progress,
// and serves verdicts through the tiered cache (memory → disk → compute),
// so answers survive restarts and accumulate across jobs and clients.
//
// The package is the testable half of cmd/topoconsvc: New builds a
// Service from a Config, Handler returns its http.Handler, Shutdown
// drains it. Tests drive the full HTTP surface through httptest without a
// listener; the command adds flags, a listener and signal handling.
package svc

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topocon/internal/check"
	"topocon/internal/faultfs"
	"topocon/internal/fsx"
	"topocon/internal/scenario"
	"topocon/internal/store"
	"topocon/internal/sweep"
)

// Config tunes a Service. Zero values get defaults from New.
type Config struct {
	// StoreDir is the persistent verdict store directory. Empty runs the
	// service memory-only (no disk tier) — useful in tests, pointless in
	// production.
	StoreDir string
	// Workers is the global session-pool size: at most this many Analyzer
	// sessions run at once across all jobs (≤ 0: 2).
	Workers int
	// MaxQueue bounds jobs accepted but not yet running; submissions
	// beyond it are rejected with 429 (≤ 0: 64).
	MaxQueue int
	// MaxBodyBytes bounds a submission body (≤ 0: 1 MiB).
	MaxBodyBytes int64
	// CellTimeout bounds one cell's analysis (0: unbounded).
	CellTimeout time.Duration
	// JobTimeout bounds one job's whole run (0: unbounded). A timed-out
	// job keeps its finished cells as a partial report.
	JobTimeout time.Duration
	// MaxJobsRetained bounds the finished jobs kept for GET (≤ 0: 512);
	// the oldest terminal jobs are evicted first. Verdicts themselves
	// live in the cache and store, not in jobs.
	MaxJobsRetained int
	// CheckpointDir, when set, makes the daemon's jobs durable across
	// restarts: every accepted job document is persisted under
	// CheckpointDir/jobs/ until the job reaches a verdict, and at startup
	// leftover documents are re-submitted automatically and counted in the
	// metrics' resumed-jobs gauge. A re-submitted job's finished cells are
	// store hits; the rest recompute. Every solving cell also pages its
	// frontier under the scratch directory
	// CheckpointDir/cells/<content address> (see sweep.Config).
	CheckpointDir string
	// PagerHotBytes is each paging cell's hot-set budget (≤ 0:
	// unlimited). Only meaningful with CheckpointDir.
	PagerHotBytes int64
	// WorkerID identifies this daemon in a coordinated multi-worker fleet
	// sharing one StoreDir + CheckpointDir. When set (with CheckpointDir),
	// cell page directories move to CheckpointDir/cells/<WorkerID> and job
	// documents to CheckpointDir/jobs/<WorkerID> so workers never collide,
	// cell leases are kept under CheckpointDir/leases, and the
	// /v1/cells/{key}/claim + release endpoints come alive. Empty keeps the
	// legacy single-worker layout.
	WorkerID string
	// LeaseTTL is the worker's cell-lease duration (≤ 0: 30s); claims renew
	// their lease every LeaseTTL/3 and self-fence — cancel the solve — if a
	// renewal fails, so a worker that cannot prove liveness stops burning
	// a cell someone else may already own.
	LeaseTTL time.Duration
	// Faults is the deterministic fault-injection schedule (nil: none).
	// It is threaded through lease writes (op "lease") and per-horizon
	// progress (op "horizon", scoped by cell name), so chaos tests can
	// fail the Nth lease write or freeze a worker at the Nth horizon.
	Faults *faultfs.Schedule
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 512
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	return c
}

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"      // ran to completion (cells may still carry errors)
	StatusFailed    = "failed"    // job-level failure (timeout, expansion error)
	StatusCancelled = "cancelled" // shutdown or client cancellation
)

// Event is one entry in a job's progress stream, delivered over SSE or
// ndjson. Seq is 1-based and dense per job, so clients can resume.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued|started|horizon|cell|done|failed|cancelled
	Job  string `json:"job"`
	Cell string `json:"cell,omitempty"`
	// Horizon is set on "horizon" events (one per analysed horizon of a
	// solving cell); Result on "cell" events (one per finished cell);
	// Summary on terminal events; Error on "failed".
	Horizon *HorizonProgress  `json:"horizon,omitempty"`
	Result  *sweep.CellResult `json:"result,omitempty"`
	Summary *sweep.Summary    `json:"summary,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// HorizonProgress is the wire form of one horizon's progress report.
type HorizonProgress struct {
	Horizon         int  `json:"horizon"`
	Runs            int  `json:"runs"`
	Components      int  `json:"components"`
	MixedComponents int  `json:"mixedComponents"`
	Broadcastable   bool `json:"broadcastable"`
}

// job is one submission's lifecycle: parsed document, status, event log.
type job struct {
	id        string
	kind      string // "scenario" | "template"
	name      string
	cells     int
	submitted time.Time
	tpl       *scenario.Template
	sc        *scenario.Scenario
	doc       []byte // raw submission body, persisted under CheckpointDir/jobs
	resumed   bool   // re-submitted from a previous daemon's leftover document

	mu       sync.Mutex
	status   string
	started  time.Time
	finished time.Time
	report   *sweep.Report
	errMsg   string
	events   []Event
	changed  chan struct{} // closed and replaced on every append/status edge
}

// append adds events (assigning sequence numbers) and wakes streamers.
func (j *job) append(evts ...Event) {
	j.mu.Lock()
	j.appendLocked(evts...)
	j.mu.Unlock()
}

// appendLocked is append with j.mu held.
func (j *job) appendLocked(evts ...Event) {
	for _, e := range evts {
		e.Seq = len(j.events) + 1
		e.Job = j.id
		j.events = append(j.events, e)
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// finish records the job's terminal status and appends its terminal event
// in one critical section: a streamer that observes the terminal status in
// a snapshot always finds the terminal event in the same snapshot.
func (j *job) finish(status, errMsg string, report *sweep.Report) {
	evt := Event{Type: status, Error: errMsg}
	if report != nil {
		sum := report.Summary
		evt.Summary = &sum
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.finished = time.Now()
	j.report = report // may be a well-formed partial report on cancel/timeout
	j.errMsg = errMsg
	j.appendLocked(evt)
}

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// snapshot returns the events after sequence number `after`, the channel
// that closes on the next change, and whether the job is finished.
func (j *job) snapshot(after int) ([]Event, chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evts []Event
	if after < len(j.events) {
		evts = append(evts, j.events[after:]...)
	}
	return evts, j.changed, terminal(j.status)
}

// buildJob parses a raw submission document into an unqueued job,
// validating it fully (including template expansion, so a malformed grid
// is rejected up front, never as a failed job). Both the HTTP submit path
// and startup job resume go through here.
func buildJob(body []byte) (*job, error) {
	j := &job{doc: append([]byte(nil), body...)}
	if scenario.IsTemplate(body) {
		tpl, err := scenario.ParseTemplate(body)
		if err != nil {
			return nil, err
		}
		if _, err := tpl.Expand(); err != nil {
			return nil, err
		}
		j.kind, j.name, j.cells, j.tpl = "template", tpl.Name, tpl.CellCount(), tpl
	} else {
		sc, err := scenario.Parse(body)
		if err != nil {
			return nil, err
		}
		j.kind, j.name, j.cells, j.sc = "scenario", sc.Name, 1, sc
	}
	return j, nil
}

// JobView is a job's wire representation.
type JobView struct {
	ID        string        `json:"id"`
	Kind      string        `json:"kind"`
	Name      string        `json:"name"`
	Cells     int           `json:"cells"`
	Status    string        `json:"status"`
	Resumed   bool          `json:"resumed,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Error     string        `json:"error,omitempty"`
	Report    *sweep.Report `json:"report,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Kind:      j.kind,
		Name:      j.name,
		Cells:     j.cells,
		Status:    j.status,
		Resumed:   j.resumed,
		Submitted: j.submitted,
		Error:     j.errMsg,
		Report:    j.report,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Service is the daemon: store, tiered cache, session pool, job queue,
// and — in coordinated worker mode — the cell-claim surface.
type Service struct {
	cfg    Config
	store  *store.Store  // nil when StoreDir is empty
	leases *store.Leases // nil outside coordinated worker mode
	cache  *sweep.Cache
	slots  chan struct{}
	queue  chan *job

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	closing bool
	jobs    map[string]*job
	order   []string // submission order, for eviction and listing
	nextID  int

	// claims tracks in-flight cell claims by canonical key, so duplicate
	// claims are refused and drain/release can cancel the solves.
	claimsMu sync.Mutex
	claims   map[string]context.CancelFunc

	analyzersBuilt atomic.Int64
	jobsSubmitted  atomic.Int64
	jobsRejected   atomic.Int64
	jobsResumed    atomic.Int64
	persistErrors  atomic.Int64
	leasesStolen   atomic.Int64
	cellRetries    atomic.Int64

	pagingMu sync.Mutex
	paging   sweep.PagingSummary // cumulative across finished jobs
}

// New opens the store (when configured), builds the tiered cache and the
// session pool, and starts the runner goroutines.
//
//topocon:allow ctxflow -- the daemon's construction is the process's context root; there is no caller context to inherit
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Workers),
		queue:  make(chan *job, cfg.MaxQueue),
		jobs:   make(map[string]*job),
		claims: make(map[string]context.CancelFunc),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.cache = sweep.NewTieredCache(st)
	} else {
		s.cache = sweep.NewCache()
	}
	if cfg.WorkerID != "" && cfg.CheckpointDir != "" {
		// Lease writes go through the fault seam so chaos tests can fail
		// the Nth one; a nil schedule wraps to the plain atomic write.
		ls, err := store.OpenLeases(filepath.Join(cfg.CheckpointDir, "leases"),
			cfg.Faults.WrapWrite("lease", fsx.AtomicWrite))
		if err != nil {
			return nil, err
		}
		s.leases = ls
	}
	s.rootCtx, s.cancel = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.runner()
	}
	if cfg.CheckpointDir != "" {
		s.resumeJobs()
	}
	return s, nil
}

// Store returns the persistent store, or nil when running memory-only.
func (s *Service) Store() *store.Store { return s.store }

// Cache returns the service's verdict cache.
func (s *Service) Cache() *sweep.Cache { return s.cache }

// AnalyzersConstructed returns the number of Analyzer sessions this
// process has built — the observable cost the cache tiers avoid.
func (s *Service) AnalyzersConstructed() int64 { return s.analyzersBuilt.Load() }

// submit validates ordering invariants and enqueues a parsed job.
// The caller has already parsed and validated the document.
func (s *Service) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return errShutdown
	}
	// The job must be fully initialized — id, status, event log — before it
	// is visible to a runner; a runner may dequeue it the instant the send
	// below succeeds.
	s.nextID++
	j.id = fmt.Sprintf("j-%06d", s.nextID)
	j.status = StatusQueued
	j.changed = make(chan struct{})
	j.submitted = time.Now()
	j.append(Event{Type: "queued"})
	// Persist before the send: once queued, a runner may finish the job
	// and retire its document at any moment, and a document written after
	// that would outlive the verdict.
	s.persistJob(j)
	select {
	case s.queue <- j:
	default:
		s.jobsRejected.Add(1)
		s.retireJobDoc(j) // never queued, never to run
		return errQueueFull
	}
	s.jobsSubmitted.Add(1)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return nil
}

// jobDocExt names persisted job documents: <id>.job under jobsDir.
const jobDocExt = ".job"

// jobsDir and cellsDir are per-worker in coordinated mode: a fleet
// shares one CheckpointDir, so each worker's job documents and cell
// scratch directories get their own namespace and two workers never
// write the same files.
func (s *Service) jobsDir() string {
	if s.cfg.WorkerID != "" {
		return filepath.Join(s.cfg.CheckpointDir, "jobs", s.cfg.WorkerID)
	}
	return filepath.Join(s.cfg.CheckpointDir, "jobs")
}

func (s *Service) cellsDir() string {
	if s.cfg.WorkerID != "" {
		return filepath.Join(s.cfg.CheckpointDir, "cells", s.cfg.WorkerID)
	}
	return filepath.Join(s.cfg.CheckpointDir, "cells")
}

// persistJob writes the job's raw submission document under the checkpoint
// dir (atomically, via fsx.AtomicWrite) so a restarted daemon can
// re-submit it. Best-effort: a write failure costs restart durability for
// this job, not the job itself — but it is logged and counted (the
// /metrics paging section's jobPersistErrors), never silently dropped.
func (s *Service) persistJob(j *job) {
	if s.cfg.CheckpointDir == "" || len(j.doc) == 0 {
		return
	}
	dir := s.jobsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.persistErrors.Add(1)
		log.Printf("svc: persisting job %s: %v", j.id, err)
		return
	}
	if err := fsx.AtomicWrite(filepath.Join(dir, j.id+jobDocExt), j.doc, 0o644); err != nil {
		s.persistErrors.Add(1)
		log.Printf("svc: persisting job %s: %v", j.id, err)
	}
}

// retireJobDoc removes a job's persisted document once it has reached a
// verdict (done or failed), or when a full queue rejected the job before it
// ever ran — the one sanctioned deletion in this package:
// the verdict now lives in the store, so the document has served its
// purpose and holds no information worth preserving. Cancelled jobs keep
// theirs: shutdown is exactly the case restart resume exists for.
func (s *Service) retireJobDoc(j *job) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(filepath.Join(s.jobsDir(), j.id+jobDocExt))
}

// resumeJobs re-submits job documents left behind by an earlier daemon —
// jobs that had not reached a verdict when the process died or shut down.
// Their cells then continue from the per-cell sweep checkpoints. Documents
// that no longer parse, and the `*.tmp` siblings of a persistJob that
// crashed before its rename, are moved into a fresh
// `quarantine/job.<random>/` subdirectory (fsx.Quarantine), never deleted.
func (s *Service) resumeJobs() {
	dir := s.jobsDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	// Advance nextID past every leftover id first, so re-submitted jobs get
	// fresh ids and persistJob can never collide with (and then delete) a
	// leftover document of the same name.
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "j-%06d"+jobDocExt, &n); err == nil {
			s.mu.Lock()
			if n > s.nextID {
				s.nextID = n
			}
			s.mu.Unlock()
		}
	}
	var bad []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), fsx.TmpExt) {
			bad = append(bad, e.Name())
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), jobDocExt) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		body, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		j, err := buildJob(body)
		if err != nil {
			bad = append(bad, e.Name())
			continue
		}
		j.resumed = true
		if err := s.submit(j); err != nil {
			continue // keep the document; the next restart retries
		}
		s.jobsResumed.Add(1)
		//topocon:allow quarantine -- submit just re-persisted the same bytes under the job's new id; the old path is a duplicate, not a record
		_ = os.Remove(path)
	}
	if err := fsx.Quarantine(dir, "job", bad...); err != nil {
		log.Printf("svc: job documents: %v", err)
	}
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
func (s *Service) evictLocked() {
	excess := len(s.order) - s.cfg.MaxJobsRetained
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		evictable := terminal(j.status)
		j.mu.Unlock()
		if excess > 0 && evictable {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// lookup returns a job by id.
func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runner executes queued jobs until the queue closes at shutdown.
func (s *Service) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through the sweep engine, recording progress
// events and classifying the terminal status.
func (s *Service) runJob(j *job) {
	ctx := s.rootCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.append(Event{Type: "started"})

	cfg := sweep.Config{
		// Workers feeds cells to the shared pool; Slots bounds how many
		// actually hold sessions at once, across every concurrent job.
		Workers:         s.cfg.Workers,
		CellTimeout:     s.cfg.CellTimeout,
		Cache:           s.cache,
		Slots:           s.slots,
		OnAnalyzerBuilt: func(string) { s.analyzersBuilt.Add(1) },
		Progress: func(c sweep.CellResult) {
			j.append(Event{Type: "cell", Cell: c.Name, Result: &c})
		},
		CellProgress: func(cell string, r check.HorizonReport) {
			j.append(Event{Type: "horizon", Cell: cell, Horizon: &HorizonProgress{
				Horizon:         r.Horizon,
				Runs:            r.Runs,
				Components:      r.Components,
				MixedComponents: r.MixedComponents,
				Broadcastable:   r.Broadcastable,
			}})
		},
	}
	if s.cfg.CheckpointDir != "" {
		// Cell scratch directories are content-addressed by sweep key, so
		// one cells/ dir is safely shared by every job, past and concurrent.
		cfg.CheckpointDir = s.cellsDir()
		cfg.PagerHotBytes = s.cfg.PagerHotBytes
	}

	var report *sweep.Report
	var err error
	if j.tpl != nil {
		report, err = sweep.Run(ctx, j.tpl, cfg)
	} else {
		report, err = sweep.RunScenario(ctx, j.sc, cfg)
	}

	status := StatusDone
	errMsg := ""
	switch {
	case err == nil:
	case ctx.Err() != nil && s.rootCtx.Err() != nil:
		status = StatusCancelled
		errMsg = "service shutting down"
	case ctx.Err() != nil:
		status = StatusFailed
		errMsg = fmt.Sprintf("job timeout after %v", s.cfg.JobTimeout)
	default:
		status = StatusFailed
		errMsg = err.Error()
	}

	if report != nil {
		s.addPaging(report.Summary.Paging)
	}
	if status != StatusCancelled {
		// Done and failed jobs have their verdict; cancelled ones keep their
		// document so the next daemon re-submits them. Cleanup precedes the
		// status flip so an observed terminal status implies it happened.
		s.retireJobDoc(j)
	}
	j.finish(status, errMsg, report)
}

// Shutdown stops accepting submissions, cancels in-flight jobs (the
// engine winds each down to a well-formed partial report), and waits for
// the runners to drain, up to the context's deadline.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	if !already {
		close(s.queue) // submit holds s.mu, so no send can race this close
	}
	s.mu.Unlock()
	s.cancel()
	// Claims abort with the root context; cancelClaims additionally covers
	// claims whose AfterFunc registration raced the cancel. Each aborted
	// claim releases its lease on the way out (the drain contract: a
	// SIGTERMed worker leaves released leases, never abandoned ones).
	s.cancelClaims()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("svc: shutdown: %w", ctx.Err())
	}
}

// addPaging folds one finished job's paging gauges into the service-wide
// totals (sums, except HotBytes which tracks the largest single-cell peak).
func (s *Service) addPaging(p sweep.PagingSummary) {
	if p == (sweep.PagingSummary{}) {
		return
	}
	s.pagingMu.Lock()
	s.paging.PagesSpilled += p.PagesSpilled
	s.paging.PagesFaulted += p.PagesFaulted
	if p.HotBytes > s.paging.HotBytes {
		s.paging.HotBytes = p.HotBytes
	}
	s.pagingMu.Unlock()
}

// Metrics is the /metrics document.
type Metrics struct {
	Jobs     JobMetrics     `json:"jobs"`
	Sessions SessionMetrics `json:"sessions"`
	Cache    CacheMetrics   `json:"cache"`
	Store    *store.Stats   `json:"store,omitempty"`
	// Paging is present whenever the daemon runs with a CheckpointDir.
	Paging *PagingMetrics `json:"paging,omitempty"`
	// Leases is present in coordinated worker mode (WorkerID set).
	Leases *LeaseMetrics `json:"leases,omitempty"`
}

// LeaseMetrics is the coordinated-worker gauge set: leasesHeld is the
// number of cells this worker is solving under a live lease right now;
// leasesStolen counts expired leases this worker took over from dead
// peers; cellRetries counts claims that arrived as re-dispatches
// (attempt > 1). Traffic carries the lease store's cumulative counters.
type LeaseMetrics struct {
	Held        int              `json:"leasesHeld"`
	Stolen      int64            `json:"leasesStolen"`
	CellRetries int64            `json:"cellRetries"`
	Traffic     store.LeaseStats `json:"traffic"`
}

// JobMetrics counts jobs by lifecycle state.
type JobMetrics struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int   `json:"cancelled"`
}

// SessionMetrics describes the global session pool.
type SessionMetrics struct {
	PoolSize             int   `json:"poolSize"`
	Busy                 int   `json:"busy"`
	AnalyzersConstructed int64 `json:"analyzersConstructed"`
}

// CacheMetrics describes the tiered verdict cache.
type CacheMetrics struct {
	Keys          int   `json:"keys"`
	MemoryHits    int64 `json:"memoryHits"`
	DiskHits      int64 `json:"diskHits"`
	Computes      int64 `json:"computes"`
	TierPutErrors int64 `json:"tierPutErrors"`
}

// PagingMetrics aggregates out-of-core traffic across finished jobs, plus
// the jobs this daemon re-submitted from a predecessor's leftover
// documents at startup and the job-document persist failures (each one a
// job that would not survive a restart).
type PagingMetrics struct {
	sweep.PagingSummary
	JobsResumed      int64 `json:"jobsResumed"`
	JobPersistErrors int64 `json:"jobPersistErrors,omitempty"`
}

// Metrics gathers the current metrics document.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	jm := JobMetrics{
		Submitted: s.jobsSubmitted.Load(),
		Rejected:  s.jobsRejected.Load(),
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.status {
		case StatusQueued:
			jm.Queued++
		case StatusRunning:
			jm.Running++
		case StatusDone:
			jm.Done++
		case StatusFailed:
			jm.Failed++
		case StatusCancelled:
			jm.Cancelled++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	cs := s.cache.Stats()
	m := Metrics{
		Jobs: jm,
		Sessions: SessionMetrics{
			PoolSize:             cap(s.slots),
			Busy:                 len(s.slots),
			AnalyzersConstructed: s.analyzersBuilt.Load(),
		},
		Cache: CacheMetrics{
			Keys:          s.cache.Len(),
			MemoryHits:    cs.MemoryHits,
			DiskHits:      cs.DiskHits,
			Computes:      cs.Computes,
			TierPutErrors: cs.TierPutErrors,
		},
	}
	if s.store != nil {
		st := s.store.Stats()
		m.Store = &st
	}
	if s.cfg.CheckpointDir != "" {
		s.pagingMu.Lock()
		pm := PagingMetrics{
			PagingSummary:    s.paging,
			JobsResumed:      s.jobsResumed.Load(),
			JobPersistErrors: s.persistErrors.Load(),
		}
		s.pagingMu.Unlock()
		m.Paging = &pm
	}
	if s.leases != nil {
		s.claimsMu.Lock()
		held := len(s.claims)
		s.claimsMu.Unlock()
		m.Leases = &LeaseMetrics{
			Held:        held,
			Stolen:      s.leasesStolen.Load(),
			CellRetries: s.cellRetries.Load(),
			Traffic:     s.leases.Stats(),
		}
	}
	return m
}
