package svc

// The cell-claim surface: the worker-side half of the multi-worker sweep
// protocol (the coordinator half lives in internal/coord). A claim is a
// synchronous POST — the coordinator sends one cell's scenario document,
// the worker takes a time-bounded lease on the cell, solves it, and
// answers with the decorated CellResult. Worker death is visible to the
// coordinator twice over: the TCP connection dies, and the lease stops
// being renewed — after which any peer may steal the cell. A steal
// recomputes the cell from horizon 1; whatever the dead worker left under
// its own cells/ namespace stays where it left it.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"time"

	"topocon/internal/check"
	"topocon/internal/scenario"
	"topocon/internal/store"
	"topocon/internal/sweep"
)

// claimRequest is the coordinator's dispatch body.
type claimRequest struct {
	// Scenario is the cell's concrete scenario document (not a template —
	// the coordinator expands the grid).
	Scenario json.RawMessage `json:"scenario"`
	// TTLMillis overrides the worker's configured lease TTL (≤ 0: keep).
	TTLMillis int64 `json:"ttlMillis,omitempty"`
	// Attempt is the coordinator's 1-based dispatch attempt for this cell.
	Attempt int `json:"attempt,omitempty"`
}

// claimConflict is the 409 body: who holds the cell and until when, so
// the coordinator knows how long to wait before a steal attempt.
type claimConflict struct {
	Error   string    `json:"error"`
	Holder  string    `json:"holder,omitempty"`
	Expires time.Time `json:"expires,omitempty"`
}

// handleClaim is POST /v1/cells/{key}/claim. Status codes are the
// protocol: 200 solved (result in the body, possibly Status "error"),
// 400 malformed or key mismatch, 409 the cell is claimed here or leased
// to a live peer, 429 no session slot free, 500 lease machinery failure
// (retryable), 503 not a coordinated worker or draining.
func (s *Service) handleClaim(w http.ResponseWriter, r *http.Request) {
	if s.leases == nil {
		writeError(w, http.StatusServiceUnavailable, "not a coordinated worker (needs -worker-id and -checkpoint-dir)")
		return
	}
	key, err := sweep.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req claimRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "claim body: %v", err)
		return
	}
	sc, err := scenario.Parse(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, "claim scenario: %v", err)
		return
	}
	// The path key must be the scenario's own key: a mismatch means the
	// coordinator and worker would file the verdict under different cells.
	scKey, err := sweep.KeyFor(sc.Adversary, sc.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "keying scenario: %v", err)
		return
	}
	if scKey != key {
		writeError(w, http.StatusBadRequest, "scenario key %s does not match claimed cell %s", scKey.String(), key.String())
		return
	}
	attempt := req.Attempt
	if attempt <= 0 {
		attempt = 1
	}
	if attempt > 1 {
		s.cellRetries.Add(1)
	}
	ttl := s.cfg.LeaseTTL
	if req.TTLMillis > 0 {
		ttl = time.Duration(req.TTLMillis) * time.Millisecond
	}

	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing || s.rootCtx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	// The claim context dies with the request (coordinator gone), the
	// service root (drain), or a failed lease renewal (self-fencing).
	claimCtx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.rootCtx, cancel)
	defer stop()

	keyStr := key.String()
	s.claimsMu.Lock()
	if _, busy := s.claims[keyStr]; busy {
		s.claimsMu.Unlock()
		writeJSON(w, http.StatusConflict, claimConflict{Error: "cell already claimed on this worker", Holder: s.cfg.WorkerID})
		return
	}
	s.claims[keyStr] = cancel
	s.claimsMu.Unlock()
	s.wg.Add(1) // Shutdown drains in-flight claims like queued jobs
	defer func() {
		s.claimsMu.Lock()
		delete(s.claims, keyStr)
		s.claimsMu.Unlock()
		s.wg.Done()
	}()

	// One session slot, non-blocking: a coordinator saturating the fleet
	// gets an immediate 429 and redistributes instead of queueing blind.
	select {
	case s.slots <- struct{}{}:
	default:
		writeError(w, http.StatusTooManyRequests, "no session slot free")
		return
	}
	defer func() { <-s.slots }()

	prev, hadPrev, err := s.leases.Acquire(key, s.cfg.WorkerID, ttl, attempt)
	if errors.Is(err, store.ErrLeaseHeld) {
		writeJSON(w, http.StatusConflict, claimConflict{Error: err.Error(), Holder: prev.Holder, Expires: prev.Expires})
		return
	}
	if err != nil {
		// A lease write failure (disk trouble or an injected fault): the
		// claim never took effect, so the coordinator may safely retry.
		writeError(w, http.StatusInternalServerError, "acquiring lease: %v", err)
		return
	}
	stolenFrom := ""
	if hadPrev && prev.Holder != s.cfg.WorkerID && prev.State == store.LeaseHeld {
		// Acquire only lets an expired held lease through: this is a steal.
		stolenFrom = prev.Holder
		s.leasesStolen.Add(1)
		log.Printf("svc: worker %s stole cell %s from %s (lease expired %s, attempt %d)",
			s.cfg.WorkerID, sc.Name, prev.Holder, prev.Expires.Format(time.RFC3339), attempt)
	}
	defer func() {
		// Held leases are released, never abandoned — on success, failure
		// and drain alike — so successors claim instantly instead of
		// waiting out the TTL. ErrLeaseLost means a peer already stole the
		// cell; the record is theirs now.
		if err := s.leases.Release(key, s.cfg.WorkerID); err != nil && !errors.Is(err, store.ErrLeaseLost) {
			log.Printf("svc: worker %s releasing lease for %s: %v", s.cfg.WorkerID, sc.Name, err)
		}
	}()

	// Heartbeat: renew at a third of the TTL; a failed renewal means we
	// can no longer prove liveness — self-fence by cancelling the solve
	// before a successor's steal turns into two workers on one cell.
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-claimCtx.Done():
				return
			case <-t.C:
				if err := s.leases.Renew(key, s.cfg.WorkerID, ttl); err != nil {
					log.Printf("svc: worker %s: renewing lease for %s: %v (abandoning cell)",
						s.cfg.WorkerID, sc.Name, err)
					cancel()
					return
				}
			}
		}
	}()
	defer func() { cancel(); <-renewDone }()

	cfg := sweep.Config{
		CellTimeout:     s.cfg.CellTimeout,
		Cache:           s.cache,
		OnAnalyzerBuilt: func(string) { s.analyzersBuilt.Add(1) },
		CheckpointDir:   s.cellsDir(),
		PagerHotBytes:   s.cfg.PagerHotBytes,
		// The horizon fault seam, scoped by cell name: a stall rule freezes
		// this worker mid-cell with its lease still on disk — the chaos
		// tests' stand-in for a wedged process.
		CellProgress: func(cell string, _ check.HorizonReport) {
			_ = s.cfg.Faults.Hit("horizon", cell)
		},
	}
	report, runErr := sweep.RunScenario(claimCtx, sc, cfg)
	if report != nil {
		s.addPaging(report.Summary.Paging)
	}
	if runErr != nil || report == nil || len(report.Cells) != 1 {
		switch {
		case s.rootCtx.Err() != nil:
			writeError(w, http.StatusServiceUnavailable, "draining")
		case claimCtx.Err() != nil && r.Context().Err() == nil:
			writeError(w, http.StatusInternalServerError, "lease renewal failed mid-solve; cell abandoned")
		default:
			writeError(w, http.StatusInternalServerError, "solving cell: %v", runErr)
		}
		return
	}
	res := report.Cells[0]
	res.Worker = s.cfg.WorkerID
	res.Attempt = attempt
	res.StolenFrom = stolenFrom
	writeJSON(w, http.StatusOK, res)
}

// handleRelease is POST /v1/cells/{key}/release: cancel an in-flight
// claim for the cell (202 — the claim response carries the abort), or
// mark this worker's on-disk lease released (200) so a successor need
// not wait out the TTL. 404 when this worker holds nothing for the key.
func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	if s.leases == nil {
		writeError(w, http.StatusServiceUnavailable, "not a coordinated worker (needs -worker-id and -checkpoint-dir)")
		return
	}
	key, err := sweep.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.claimsMu.Lock()
	cancel, active := s.claims[key.String()]
	s.claimsMu.Unlock()
	if active {
		cancel()
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
		return
	}
	lease, ok := s.leases.Get(key)
	if !ok || lease.Holder != s.cfg.WorkerID || lease.State != store.LeaseHeld {
		writeError(w, http.StatusNotFound, "no lease held here for this cell")
		return
	}
	if err := s.leases.Release(key, s.cfg.WorkerID); err != nil {
		writeError(w, http.StatusInternalServerError, "releasing lease: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
}

// cancelClaims aborts every in-flight claim. Shutdown calls it right
// after cancelling the root context: each claim's solve winds down and
// its deferred lease release runs before the claim handler returns, so a
// drained worker leaves released leases, never abandoned ones.
func (s *Service) cancelClaims() {
	s.claimsMu.Lock()
	for _, cancel := range s.claims {
		cancel()
	}
	s.claimsMu.Unlock()
}
