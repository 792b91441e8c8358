// Package coord is the coordinator half of the multi-worker sweep
// protocol: it expands a template grid once, dispatches each cell to a
// fleet of topoconsvc workers over HTTP/JSON (POST /v1/cells/{key}/claim),
// and merges the decorated per-cell results into one sweep report in grid
// order — as if a single process had run the sweep.
//
// Fault tolerance is built from three mechanisms, all observable in the
// merged report's provenance fields (Worker, Attempt, StolenFrom):
//
//   - Leases. Workers record a time-bounded lease per cell in the shared
//     checkpoint directory and renew it while solving. The coordinator
//     never reads those files — the 409 conflict body's expiry tells it
//     how long to wait before the next claim can steal the cell.
//
//   - Steals. When a worker dies, its TCP connection drops but its lease
//     survives on disk. The coordinator marks the worker dead and
//     re-dispatches the cell to a peer; the claim that outlives the dead
//     holder's lease takes the cell over and recomputes it from horizon 1.
//     A cell's verdict depends only on its adversary and options, so a
//     recompute is always correct, and what the dead worker left under
//     its own namespace stays where it left it.
//
//   - Revival probes. A dead mark is a hypothesis, not a verdict: the
//     coordinator re-probes a dead worker's GET /healthz on the run's
//     backoff policy and returns it to the dispatch rotation on the first
//     200 — so a worker that was restarted (or suffered a transient
//     network partition) rejoins the sweep instead of staying benched for
//     the rest of the run. Probes are capped (reviveProbes attempts per
//     death), so a permanently gone worker costs a bounded number of
//     requests and an all-dead fleet still terminates the run.
//
//   - A per-cell circuit breaker. Transient refusals (409 lease conflicts,
//     429 slot exhaustion) wait-and-retry without limit; genuine failures
//     (HTTP 500, cell Status "error") count against Config.MaxAttempts,
//     after which the cell is recorded as a terminal error instead of
//     retrying forever. Backoff between failure retries comes from
//     internal/retry's capped-exponential-with-full-jitter policy.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sync"
	"time"

	"topocon/internal/retry"
	"topocon/internal/scenario"
	"topocon/internal/sweep"
)

// Config parameterizes a coordinated sweep run.
type Config struct {
	// Workers are the fleet's base URLs, e.g. "http://127.0.0.1:8081".
	// Workers that stop answering TCP are marked dead and their leased
	// cells stolen by the survivors; a capped background probe of each
	// dead worker's /healthz returns it to the rotation if it recovers.
	Workers []string
	// LeaseTTL is the per-cell lease duration sent with every claim; a
	// worker that misses renewals for this long loses the cell (≤ 0: 30s).
	LeaseTTL time.Duration
	// MaxAttempts is the per-cell circuit breaker: the number of failed
	// dispatches (HTTP 500 or cell Status "error") a cell may accumulate
	// before it is recorded as a terminal error (≤ 0: 4).
	MaxAttempts int
	// Dispatchers bounds the cells in flight at once (≤ 0: 2 per worker).
	Dispatchers int
	// Retry shapes the backoff between failure re-dispatches and busy
	// (429) retries. The zero value is the package default policy.
	Retry retry.Policy
	// Client is the HTTP client for claims. Nil uses a client without a
	// timeout — a claim blocks for the whole solve, so per-request
	// deadlines belong in the context given to Run, not the client.
	Client *http.Client
	// OnCell, when set, observes each cell result as it is accepted (in
	// completion order, not grid order; called serially).
	OnCell func(sweep.CellResult)
	// Logf, when set, receives progress lines (nil: the standard logger).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 2 * len(c.Workers)
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats counts the run's dispatch traffic — the coordinator-side view of
// the fleet's health.
type Stats struct {
	// Cells is the grid size; Dispatched the claim POSTs that reached a
	// worker attempt (including ones answered 409/429).
	Cells      int `json:"cells"`
	Dispatched int `json:"dispatched"`
	// Retries counts dispatches past each cell's first.
	Retries int `json:"retries"`
	// Steals counts results whose worker took over a dead peer's lease.
	Steals int `json:"steals"`
	// BreakerTrips counts cells abandoned as terminal errors after
	// MaxAttempts failed dispatches.
	BreakerTrips int `json:"breakerTrips"`
	// DeadWorkers counts workers marked dead (transport failure or drain).
	DeadWorkers int `json:"deadWorkers"`
	// Revived counts dead workers returned to rotation by a successful
	// health probe. A worker that dies and revives repeatedly counts once
	// per death, so Revived can exceed the fleet size.
	Revived int `json:"revived"`
}

// ErrNoWorkers is returned by Run when the fleet is empty.
var ErrNoWorkers = errors.New("coord: no workers configured")

// errAllDead terminates a cell when every worker has been marked dead.
var errAllDead = errors.New("coord: all workers dead")

// cellWork is one grid cell prepared for dispatch: its key, the marshalled
// claim body scenario, and the metadata echoed into terminal results the
// fleet never produced (breaker trips, all-dead).
type cellWork struct {
	index    int
	name     string
	bindings []scenario.Binding
	key      sweep.Key
	keyErr   error
	spec     []byte
}

// Run expands the template grid, dispatches every cell across the fleet,
// and returns the merged report (cells in grid order) plus dispatch stats.
// The error is non-nil only for whole-run failures — an empty fleet, a
// template that cannot expand, a cancelled context; per-cell failures are
// recorded in the report, never returned.
func Run(ctx context.Context, tpl *scenario.Template, cfg Config) (*sweep.Report, *Stats, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, nil, ErrNoWorkers
	}
	cells, err := tpl.Expand()
	if err != nil {
		return nil, nil, fmt.Errorf("coord: expanding %s: %w", tpl.Name, err)
	}

	work := make([]cellWork, len(cells))
	for i, cell := range cells {
		w := cellWork{index: i, name: cell.Scenario.Name, bindings: cell.Bindings}
		w.key, w.keyErr = sweep.KeyFor(cell.Scenario.Adversary, cell.Scenario.Options)
		if w.keyErr == nil {
			w.spec, w.keyErr = json.Marshal(cell.Scenario.Spec)
		}
		work[i] = w
	}

	// Revival probes outlive the cell dispatch that spawned them but not
	// the run: cancelling probeCtx (and waiting on the probe group) at exit
	// keeps Run's return prompt even when a dead worker never answers.
	probeCtx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	co := &coordinator{
		cfg:      cfg,
		pool:     newWorkerPool(cfg.Workers),
		stats:    Stats{Cells: len(cells)},
		probeCtx: probeCtx,
	}
	start := time.Now()
	results := make([]sweep.CellResult, len(cells))
	queue := make(chan int)
	var wg sync.WaitGroup
	for d := 0; d < cfg.Dispatchers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res := co.runCell(ctx, work[i])
				results[i] = res
				co.observe(res)
			}
		}()
	}
	for i := range work {
		queue <- i
	}
	close(queue)
	wg.Wait()
	stopProbes()
	co.probes.Wait()

	rep := &sweep.Report{
		Template:   tpl.Name,
		Params:     tpl.Params,
		Workers:    len(cfg.Workers),
		WallMillis: float64(time.Since(start)) / float64(time.Millisecond),
		Cells:      results,
		Summary:    sweep.Summarize(results),
	}
	stats := co.snapshot()
	if ctx.Err() != nil {
		return rep, &stats, fmt.Errorf("coord: %w", ctx.Err())
	}
	return rep, &stats, nil
}

// coordinator is the shared state of one Run.
type coordinator struct {
	cfg  Config
	pool *workerPool

	// probeCtx scopes revival probes to the run; probes tracks them so Run
	// can wait for the goroutines after cancelling.
	probeCtx context.Context
	probes   sync.WaitGroup

	mu    sync.Mutex
	stats Stats
}

func (co *coordinator) observe(res sweep.CellResult) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if res.StolenFrom != "" {
		co.stats.Steals++
	}
	if co.cfg.OnCell != nil {
		co.cfg.OnCell(res)
	}
}

func (co *coordinator) snapshot() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.stats
}

func (co *coordinator) count(f func(*Stats)) {
	co.mu.Lock()
	f(&co.stats)
	co.mu.Unlock()
}

// runCell owns one cell from first dispatch to accepted result. Transient
// refusals (lease conflicts, busy workers, worker deaths) loop without a
// failure budget — they resolve by waiting or by the fleet shrinking —
// while genuine failures count toward the circuit breaker.
func (co *coordinator) runCell(ctx context.Context, w cellWork) sweep.CellResult {
	if w.keyErr != nil {
		return w.terminal(0, fmt.Sprintf("keying cell: %v", w.keyErr))
	}
	var (
		attempt  int // dispatches sent (1-based in the claim body)
		failures int // breaker budget consumed
		busy     int // consecutive 429s, for backoff growth
		lastErr  string
	)
	for {
		if ctx.Err() != nil {
			return w.cancelled(attempt)
		}
		worker, ok := co.pool.pick()
		if !ok {
			co.cfg.Logf("coord: cell %s: %v after %d dispatches", w.name, errAllDead, attempt)
			return w.terminal(attempt, errAllDead.Error())
		}
		attempt++
		co.count(func(s *Stats) {
			s.Dispatched++
			if attempt > 1 {
				s.Retries++
			}
		})
		out := co.claim(ctx, worker, w, attempt)
		switch out.kind {
		case claimOK:
			if out.res.Status == sweep.StatusError {
				failures++
				lastErr = out.res.Err
				if failures >= co.cfg.MaxAttempts {
					return co.trip(w, out.res)
				}
				co.cfg.Logf("coord: cell %s: attempt %d failed on %s: %s (retrying)", w.name, attempt, worker, out.res.Err)
				if retry.Sleep(ctx, co.cfg.Retry.Delay(failures)) != nil {
					return w.cancelled(attempt)
				}
				continue
			}
			return out.res

		case claimConflicted:
			// A live peer holds the lease. If it is dead, the next claim
			// that outlives the lease steals the cell. Poll again at a
			// fraction of the TTL so a graceful release is picked up early.
			if retry.Sleep(ctx, co.conflictWait(out.expires)) != nil {
				return w.cancelled(attempt)
			}

		case claimBusy:
			busy++
			if retry.Sleep(ctx, co.cfg.Retry.Delay(busy)) != nil {
				return w.cancelled(attempt)
			}

		case claimWorkerGone:
			// The worker is unreachable or draining: mark it dead and move
			// on. Not a cell failure — if the dead worker held this cell's
			// lease, the next claim will 409 against it and the conflict
			// body identifies whom to steal from. A background probe gives
			// the worker a bounded chance to rejoin the rotation.
			if co.pool.markDead(worker) {
				co.count(func(s *Stats) { s.DeadWorkers++ })
				co.cfg.Logf("coord: worker %s marked dead (%s)", worker, out.err)
				co.probes.Add(1)
				go co.probeRevival(co.probeCtx, worker)
			}

		case claimFailed:
			failures++
			lastErr = out.err
			if failures >= co.cfg.MaxAttempts {
				return co.trip(w, w.terminal(attempt, lastErr))
			}
			co.cfg.Logf("coord: cell %s: attempt %d on %s: %s (retrying)", w.name, attempt, worker, out.err)
			if retry.Sleep(ctx, co.cfg.Retry.Delay(failures)) != nil {
				return w.cancelled(attempt)
			}

		case claimRejected:
			// 400: deterministic — the same body would be rejected again.
			return w.terminal(attempt, out.err)
		}
	}
}

// trip records a circuit-breaker trip and returns the cell's terminal
// result (the last failed attempt's, so its error is preserved).
func (co *coordinator) trip(w cellWork, res sweep.CellResult) sweep.CellResult {
	co.count(func(s *Stats) { s.BreakerTrips++ })
	res.Err = fmt.Sprintf("circuit breaker open after %d failed dispatches: %s", co.cfg.MaxAttempts, res.Err)
	co.cfg.Logf("coord: cell %s: %s", w.name, res.Err)
	return res
}

// conflictWait converts a 409 body's lease expiry into a sleep: long
// enough to matter, short enough to notice an early release, never past
// the expiry by more than the poll floor.
func (co *coordinator) conflictWait(expires time.Time) time.Duration {
	const floor = 20 * time.Millisecond
	wait := co.cfg.LeaseTTL / 4
	if !expires.IsZero() {
		if until := time.Until(expires) + floor; until < wait {
			wait = until
		}
	}
	if wait < floor {
		wait = floor
	}
	return wait
}

// claimOutcome classifies one claim POST.
type claimOutcome struct {
	kind    claimKind
	res     sweep.CellResult // claimOK
	expires time.Time        // claimConflicted
	err     string           // everything else
}

type claimKind int

const (
	claimOK         claimKind = iota // 200: result accepted (possibly Status error)
	claimConflicted                  // 409: leased to a live holder
	claimBusy                        // 429: no session slot free
	claimWorkerGone                  // transport error or 503: worker dead/draining
	claimFailed                      // 500: retryable worker-side failure
	claimRejected                    // 400: permanent rejection
)

// conflictBody is the part of the worker's 409 response the coordinator
// reads.
type conflictBody struct {
	Error   string    `json:"error"`
	Expires time.Time `json:"expires"`
}

// claim POSTs one dispatch to worker and classifies the answer.
func (co *coordinator) claim(ctx context.Context, worker string, w cellWork, attempt int) claimOutcome {
	body, err := json.Marshal(map[string]any{
		"scenario":  json.RawMessage(w.spec),
		"ttlMillis": co.cfg.LeaseTTL.Milliseconds(),
		"attempt":   attempt,
	})
	if err != nil {
		return claimOutcome{kind: claimRejected, err: fmt.Sprintf("encoding claim: %v", err)}
	}
	u := worker + "/v1/cells/" + url.PathEscape(w.key.String()) + "/claim"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return claimOutcome{kind: claimRejected, err: fmt.Sprintf("building claim request: %v", err)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.cfg.Client.Do(req)
	if err != nil {
		return claimOutcome{kind: claimWorkerGone, err: err.Error()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// The worker died mid-response; the claim's fate is unknown, but
		// its lease is on disk either way — same recovery as a dead TCP dial.
		return claimOutcome{kind: claimWorkerGone, err: fmt.Sprintf("reading claim response: %v", err)}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var res sweep.CellResult
		if err := json.Unmarshal(data, &res); err != nil {
			return claimOutcome{kind: claimFailed, err: fmt.Sprintf("decoding result: %v", err)}
		}
		return claimOutcome{kind: claimOK, res: res}
	case http.StatusConflict:
		var c conflictBody
		_ = json.Unmarshal(data, &c)
		return claimOutcome{kind: claimConflicted, expires: c.Expires, err: c.Error}
	case http.StatusTooManyRequests:
		return claimOutcome{kind: claimBusy, err: apiErrorText(data)}
	case http.StatusServiceUnavailable:
		return claimOutcome{kind: claimWorkerGone, err: apiErrorText(data)}
	case http.StatusBadRequest:
		return claimOutcome{kind: claimRejected, err: apiErrorText(data)}
	default:
		return claimOutcome{kind: claimFailed, err: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, apiErrorText(data))}
	}
}

// apiErrorText extracts the {"error": ...} body, falling back to the raw bytes.
func apiErrorText(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// terminal builds a cell result the fleet never produced: keying errors,
// breaker trips without a worker-side result, all-dead runs.
func (w cellWork) terminal(attempt int, msg string) sweep.CellResult {
	return sweep.CellResult{
		Name:              w.name,
		Bindings:          w.bindings,
		Fingerprint:       w.key.Fingerprint,
		Status:            sweep.StatusError,
		SeparationHorizon: -1,
		Attempt:           attempt,
		Err:               msg,
	}
}

func (w cellWork) cancelled(attempt int) sweep.CellResult {
	return sweep.CellResult{
		Name:              w.name,
		Bindings:          w.bindings,
		Fingerprint:       w.key.Fingerprint,
		Status:            sweep.StatusCancelled,
		SeparationHorizon: -1,
		Attempt:           attempt,
	}
}

// workerPool is the fleet roster: round-robin assignment skipping workers
// marked dead. Death is a reversible mark, not a verdict: a revival probe
// that sees the worker's /healthz answer 200 calls markAlive and the
// worker rejoins the rotation — any half-finished solve it still holds is
// resolved by the lease protocol (survivors steal expired leases; the
// revived worker's stale session loses its lease and abandons the cell).
type workerPool struct {
	mu   sync.Mutex
	urls []string
	dead map[string]bool
	next int
}

func newWorkerPool(urls []string) *workerPool {
	return &workerPool{urls: urls, dead: make(map[string]bool, len(urls))}
}

// pick returns the next live worker, or ok=false when none remain.
func (p *workerPool) pick() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.urls); i++ {
		u := p.urls[p.next%len(p.urls)]
		p.next++
		if !p.dead[u] {
			return u, true
		}
	}
	return "", false
}

// markDead records a worker as dead; false if it already was.
func (p *workerPool) markDead(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead[url] {
		return false
	}
	p.dead[url] = true
	return true
}

// markAlive returns a dead worker to the rotation; false if it was not dead.
func (p *workerPool) markAlive(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.dead[url] {
		return false
	}
	delete(p.dead, url)
	return true
}

// reviveProbes caps the /healthz re-probe attempts spent on each death, so
// a permanently gone worker costs a bounded number of requests and the
// all-dead terminal path is never postponed indefinitely.
const reviveProbes = 8

// probeHealthTimeout bounds each individual /healthz request. Health
// checks are cheap; a worker that cannot answer within this window is not
// ready to rejoin the rotation yet.
const probeHealthTimeout = 2 * time.Second

// probeRevival re-probes a dead worker's /healthz on the run's backoff
// policy and returns it to the rotation on the first 200. One probe
// goroutine runs per death (markDead's true return gates the spawn), so a
// worker that flaps gets a fresh probe budget each time it dies.
func (co *coordinator) probeRevival(ctx context.Context, worker string) {
	defer co.probes.Done()
	for attempt := 1; attempt <= reviveProbes; attempt++ {
		if retry.Sleep(ctx, co.cfg.Retry.Delay(attempt)) != nil {
			return
		}
		if !co.probeHealth(ctx, worker) {
			continue
		}
		if co.pool.markAlive(worker) {
			co.count(func(s *Stats) { s.Revived++ })
			co.cfg.Logf("coord: worker %s revived after %d health probes", worker, attempt)
		}
		return
	}
	co.cfg.Logf("coord: worker %s stayed dead after %d health probes", worker, reviveProbes)
}

// probeHealth reports whether the worker's /healthz answers 200 within the
// probe timeout. 503 (draining) and transport errors both read as not yet.
func (co *coordinator) probeHealth(ctx context.Context, worker string) bool {
	pctx, cancel := context.WithTimeout(ctx, probeHealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := co.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
