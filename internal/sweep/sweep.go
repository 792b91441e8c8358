// Package sweep is the batch evaluation engine: it expands a parameterized
// scenario template (internal/scenario) into its concrete grid, runs the
// cells as Analyzer sessions over a bounded worker pool, and dedupes
// behaviourally isomorphic cells through a fingerprint-keyed verdict cache
// — parameterized families produce such cells constantly (saturating loss
// budgets, windows past the horizon, symmetric graph relabelings), and the
// cache turns each class into one solve plus cheap hits.
//
// The cache reads through an optional persistent tier (memory → disk →
// compute; see Cache and internal/store), so verdicts survive processes
// and accumulate across runs — the substrate of both `topocheck -sweep
// -cache-dir` and the topoconsvc daemon.
//
// Results land in a structured Report: per-cell verdict, separation
// horizon, runs explored, wall time and cache-tier attribution, plus
// grid-level summary statistics; the report marshals to JSON and renders
// as a human table.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"topocon/internal/check"
	"topocon/internal/ckpt"
	"topocon/internal/fsx"
	"topocon/internal/pager"
	"topocon/internal/scenario"
)

// Cell statuses in a report.
const (
	// StatusDone: the cell was analysed to a verdict.
	StatusDone = "done"
	// StatusError: the cell failed (configuration error, per-cell timeout).
	StatusError = "error"
	// StatusCancelled: the sweep was cancelled before the cell ran.
	StatusCancelled = "cancelled"
)

// Config tunes a sweep run. The zero value runs sequentially with no
// per-cell timeout.
type Config struct {
	// Workers bounds the number of concurrently running cells (≤ 0: 1).
	Workers int
	// CellTimeout bounds one cell's analysis wall time (0: unbounded). A
	// timed-out cell reports StatusError; its key is not cached, so the
	// timeout of one cell does not poison later isomorphic cells.
	CellTimeout time.Duration
	// Progress, when set, is invoked with each finished cell's result, in
	// completion order, serialized by the engine.
	Progress func(CellResult)
	// CellProgress, when set, receives per-horizon progress of every cell
	// this run actually solves (cache misses), keyed by the cell's name.
	// Calls are serialized by the engine together with Progress. Cache hits
	// produce no horizon progress — their sessions never run.
	CellProgress func(cell string, rep check.HorizonReport)
	// OnAnalyzerBuilt, when set, observes every Analyzer construction this
	// run performs (i.e. every cache miss actually solved), keyed by
	// fingerprint. The service's metrics and the race-checked dedup tests
	// count constructions through this seam.
	OnAnalyzerBuilt func(fingerprint string)
	// Cache, when set, is shared with (and reused across) other sweeps;
	// nil runs with a fresh per-sweep cache. Build it with NewTieredCache
	// to back it with a persistent verdict store.
	Cache *Cache
	// Slots, when non-nil, is a shared session-pool semaphore: every cell
	// acquires a slot before running and releases it afterwards, so one
	// bounded pool can span many concurrent sweeps (the daemon's global
	// session pool). Its capacity, not Workers, then bounds concurrency.
	Slots chan struct{}
	// CheckpointDir, when set, makes every solved cell run out-of-core: its
	// session pages its frontier under a pager (hot-set budget
	// PagerHotBytes) rooted in the cell's own scratch subdirectory,
	// CellDir of its key. Cells never checkpoint and never resume: a cell
	// cut short is recomputed from horizon 1, since its verdict depends
	// only on its adversary and options. Whatever a killed run left in the
	// subdirectory is moved into CheckpointDir's quarantine/ before the
	// cell starts, and the subdirectory is deleted when the cell returns,
	// whatever the outcome. Cache hits never page — their sessions never
	// run.
	CheckpointDir string
	// PagerHotBytes is each paging cell's hot-set budget in bytes (≤ 0:
	// unlimited). Only meaningful with CheckpointDir.
	PagerHotBytes int64
	// NoSymmetry forces check.Options.NoSymmetry on every cell: sessions
	// analyse the full prefix space instead of the symmetry quotient, with
	// neither its process part nor its input-value part (DESIGN.md §13). The option enters each cell's cache key, so
	// quotiented and full runs of the same grid never share records —
	// verdicts are identical either way, but run-time statistics differ.
	// A differential-testing override (CI compares the two sweeps).
	NoSymmetry bool
}

// Run expands the template and analyses its grid under the config. On
// cancellation it returns the partial report together with the context
// error: finished cells keep their results and unstarted cells report
// StatusCancelled, so a cancelled sweep still yields a well-formed report.
func Run(ctx context.Context, tpl *scenario.Template, cfg Config) (*Report, error) {
	cells, err := tpl.Expand()
	if err != nil {
		return nil, err
	}
	report := &Report{
		Template: tpl.Name,
		Params:   tpl.Params,
		Workers:  workers(cfg),
		Cells:    make([]CellResult, len(cells)),
	}
	runGrid(ctx, cells, cfg, report)
	return report, ctx.Err()
}

// RunScenario analyses one concrete (non-template) scenario through the
// same engine as a single-cell grid: the cell goes through the config's
// cache, session-pool slot, timeout and progress machinery exactly like a
// template cell, so daemons and CLIs can serve both document kinds with
// one code path and one shared verdict corpus.
func RunScenario(ctx context.Context, sc *scenario.Scenario, cfg Config) (*Report, error) {
	report := &Report{
		Template: sc.Name,
		Workers:  workers(cfg),
		Cells:    make([]CellResult, 1),
	}
	runGrid(ctx, []scenario.Cell{{Scenario: sc}}, cfg, report)
	return report, ctx.Err()
}

// runGrid drives the cells and fills the report's timing and summary.
func runGrid(ctx context.Context, cells []scenario.Cell, cfg Config, report *Report) {
	cache := cfg.Cache
	if cache == nil {
		cache = NewCache()
	}
	start := time.Now()
	paging := runCells(ctx, cells, cfg, cache, report.Cells)
	report.WallMillis = millis(time.Since(start))
	report.Summary = summarize(report.Cells, cache)
	report.Summary.Paging = paging
}

func workers(cfg Config) int {
	if cfg.Workers <= 0 {
		return 1
	}
	return cfg.Workers
}

// sweepState carries the per-run shared pieces.
type sweepState struct {
	cfg        Config
	cache      *Cache
	progressMu sync.Mutex

	// pagingMu guards the run's aggregated paging gauges.
	pagingMu sync.Mutex
	paging   PagingSummary
}

// recordPaging folds one solved cell's pager traffic into the run totals.
func (st *sweepState) recordPaging(ps pager.Stats) {
	st.pagingMu.Lock()
	st.paging.PagesSpilled += ps.PagesSpilled
	st.paging.PagesFaulted += ps.PagesFaulted
	if ps.PeakHotBytes > st.paging.HotBytes {
		st.paging.HotBytes = ps.PeakHotBytes
	}
	st.pagingMu.Unlock()
}

// horizonProgress relays one solving cell's per-horizon report, serialized
// with the cell-completion callback.
func (st *sweepState) horizonProgress(cell string, rep check.HorizonReport) {
	if st.cfg.CellProgress == nil {
		return
	}
	st.progressMu.Lock()
	st.cfg.CellProgress(cell, rep)
	st.progressMu.Unlock()
}

// runCells drives the worker pool over the grid, writing each cell's result
// into its own slot of results (grid order), and returns the run's
// aggregated paging gauges.
func runCells(ctx context.Context, cells []scenario.Cell, cfg Config, cache *Cache, results []CellResult) PagingSummary {
	st := &sweepState{cfg: cfg, cache: cache}
	// Pre-mark every cell cancelled; workers overwrite the slots they run.
	for i, cell := range cells {
		results[i] = CellResult{
			Name:              cell.Scenario.Name,
			Bindings:          cell.Bindings,
			Status:            StatusCancelled,
			SeparationHorizon: -1,
		}
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers(cfg); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if cfg.Slots != nil {
					// The shared session pool bounds concurrency across
					// sweeps; a cancellation while queued leaves the cell's
					// pre-marked cancelled result in place.
					select {
					case cfg.Slots <- struct{}{}:
					case <-ctx.Done():
						continue
					}
				}
				res := st.runCell(ctx, cells[i])
				if cfg.Slots != nil {
					<-cfg.Slots
				}
				results[i] = res
				if cfg.Progress != nil {
					st.progressMu.Lock()
					cfg.Progress(results[i])
					st.progressMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	return st.paging
}

// runCell analyses one grid cell through the verdict cache.
func (st *sweepState) runCell(ctx context.Context, cell scenario.Cell) CellResult {
	sc := cell.Scenario
	res := CellResult{
		Name:              sc.Name,
		Bindings:          cell.Bindings,
		Status:            StatusDone,
		SeparationHorizon: -1,
	}
	if sc.Expect != 0 {
		res.Expect = sc.Expect.String()
	}
	if err := ctx.Err(); err != nil {
		res.Status = StatusCancelled
		return res
	}
	start := time.Now()
	if st.cfg.NoSymmetry {
		// Copy-on-override: cells share the expanded template's Scenario
		// values; never mutate them in place.
		override := *sc
		override.Options.NoSymmetry = true
		sc = &override
	}
	key, err := KeyFor(sc.Adversary, sc.Options)
	if err != nil {
		res.Status = StatusError
		res.Err = err.Error()
		return res
	}
	res.Fingerprint = key.Fingerprint
	cellCtx := ctx
	if st.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, st.cfg.CellTimeout)
		defer cancel()
	}
	out, tier, err := st.cache.Do(cellCtx, key, func() (Outcome, error) {
		return st.solveCell(cellCtx, sc, key)
	})
	res.WallMillis = millis(time.Since(start))
	res.CacheHit = tier != TierNone
	res.CacheTier = tier.String()
	switch {
	case err == nil:
		res.Verdict = out.Verdict.String()
		res.Exact = out.Exact
		res.SeparationHorizon = out.SeparationHorizon
		res.Horizon = out.Horizon
		res.Runs = out.Runs
		res.Notes = out.Notes
		if res.Expect != "" {
			match := res.Verdict == res.Expect
			res.Match = &match
		}
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		// The sweep itself was cancelled (not just this cell's budget).
		res.Status = StatusCancelled
	case errors.Is(err, context.DeadlineExceeded):
		res.Status = StatusError
		res.Err = fmt.Sprintf("cell timeout after %v", st.cfg.CellTimeout)
	default:
		// A deterministic solver error: classify by the error itself, not
		// by cellCtx state — a deadline that happens to elapse during a
		// failing solve must not masquerade as a timeout (the error is
		// cached, and later isomorphic cells would tell a different story).
		res.Status = StatusError
		res.Err = err.Error()
	}
	return res
}

// solveCell is the cache-miss path: one full Analyzer session, in memory
// by default and paged under the cell's scratch directory when the config
// names a CheckpointDir.
func (st *sweepState) solveCell(ctx context.Context, sc *scenario.Scenario, key Key) (Outcome, error) {
	runs := 0
	opts := []check.AnalyzerOption{
		check.WithOptions(sc.Options),
		check.WithProgress(func(r check.HorizonReport) {
			runs = r.Runs
			st.horizonProgress(sc.Name, r)
		}),
	}
	if st.cfg.CheckpointDir != "" {
		// The cell's directory is scratch. A killed run's leftovers are
		// moved aside whole first, so deleting the directory afterwards
		// never deletes them.
		if err := fsx.Quarantine(st.cfg.CheckpointDir, "cell", CellDir(key)); err != nil {
			return Outcome{}, err
		}
		dir := filepath.Join(st.cfg.CheckpointDir, CellDir(key))
		// Best effort: a directory left behind is moved aside by the next
		// solve of this key.
		defer func() { _ = ckpt.Remove(dir) }()
		pg, err := ckpt.Fresh(dir, st.cfg.PagerHotBytes)
		if err != nil {
			return Outcome{}, err
		}
		defer func() { st.recordPaging(pg.Stats()) }()
		opts = append(opts, check.WithPager(pg))
	}
	if st.cfg.OnAnalyzerBuilt != nil {
		st.cfg.OnAnalyzerBuilt(key.Fingerprint)
	}
	an, err := check.NewAnalyzer(sc.Adversary, opts...)
	if err != nil {
		return Outcome{}, err
	}
	res, err := an.Check(ctx)
	if err != nil {
		return Outcome{}, err
	}
	return outcomeOf(res, runs), nil
}

func outcomeOf(res *check.Result, runs int) Outcome {
	return Outcome{
		Verdict:           res.Verdict,
		Exact:             res.Exact,
		SeparationHorizon: res.SeparationHorizon,
		Horizon:           res.Horizon,
		Runs:              runs,
		Notes:             res.Notes,
	}
}

// CellDir is the content address of a cell's key: the name of the cell's
// scratch subdirectory under Config.CheckpointDir, so distinct cells never
// collide and a retry finds what a killed run left, and the basename its
// lease and verdict records derive from.
func CellDir(key Key) string {
	sum := sha256.Sum256([]byte(key.String()))
	return hex.EncodeToString(sum[:])
}

func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
