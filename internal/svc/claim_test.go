package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"topocon"
	"topocon/internal/check"
	"topocon/internal/coord"
	"topocon/internal/faultfs"
	"topocon/internal/retry"
	"topocon/internal/scenario"
	"topocon/internal/store"
	"topocon/internal/sweep"
)

// cellKey parses a concrete scenario document and returns its sweep key.
func cellKey(t *testing.T, doc string) (sweep.Key, *scenario.Scenario) {
	t.Helper()
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	key, err := sweep.KeyFor(sc.Adversary, sc.Options)
	if err != nil {
		t.Fatal(err)
	}
	return key, sc
}

// claim POSTs a claim for the document's cell and decodes the result.
func (h *harness) claim(doc string, attempt int) (int, sweep.CellResult, string) {
	h.t.Helper()
	key, _ := cellKey(h.t, doc)
	body := fmt.Sprintf(`{"scenario": %s, "attempt": %d}`, doc, attempt)
	resp, err := http.Post(h.ts.URL+"/v1/cells/"+key.String()+"/claim", "application/json", strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var raw json.RawMessage
		json.NewDecoder(resp.Body).Decode(&raw)
		return resp.StatusCode, sweep.CellResult{}, string(raw)
	}
	var res sweep.CellResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		h.t.Fatalf("decoding claim result: %v", err)
	}
	return resp.StatusCode, res, ""
}

// workerHarness boots a coordinated worker sharing the given store and
// checkpoint directories.
func workerHarness(t *testing.T, storeDir, ckptDir, id string, faults *faultfs.Schedule) *harness {
	t.Helper()
	return newHarness(t, Config{
		StoreDir:      storeDir,
		CheckpointDir: ckptDir,
		WorkerID:      id,
		Workers:       2,
		Faults:        faults,
	})
}

func TestClaimSolvesCell(t *testing.T) {
	h := workerHarness(t, t.TempDir(), t.TempDir(), "w1", nil)
	doc := lossyScenario("cell-1")
	code, res, errBody := h.claim(doc, 1)
	if code != http.StatusOK {
		t.Fatalf("claim = %d: %s", code, errBody)
	}
	if res.Status != sweep.StatusDone || res.Verdict != "impossible" || res.Match == nil || !*res.Match {
		t.Fatalf("claim result = %+v", res)
	}
	if res.Worker != "w1" || res.Attempt != 1 || res.StolenFrom != "" {
		t.Fatalf("provenance = worker %q attempt %d stolenFrom %q", res.Worker, res.Attempt, res.StolenFrom)
	}
	// The lease ends released, not abandoned: a successor would not wait.
	key, _ := cellKey(t, doc)
	lease, ok := h.svc.leases.Get(key)
	if !ok || lease.State != store.LeaseReleased || lease.Holder != "w1" {
		t.Fatalf("post-claim lease = %+v, %v", lease, ok)
	}
	m := h.metrics()
	if m.Leases == nil || m.Leases.Held != 0 || m.Leases.Traffic.Acquired != 1 || m.Leases.Traffic.Released != 1 {
		t.Fatalf("lease metrics = %+v", m.Leases)
	}
	// The verdict is in the shared store: a second claim is a cache hit.
	code, res2, _ := h.claim(doc, 1)
	if code != http.StatusOK || !res2.CacheHit {
		t.Fatalf("second claim = %d cacheHit=%v", code, res2.CacheHit)
	}
}

func TestClaimRejectsKeyMismatch(t *testing.T) {
	h := workerHarness(t, t.TempDir(), t.TempDir(), "w1", nil)
	key, _ := cellKey(t, lossyScenario("real"))
	// Claim the real key but ship a behaviourally different scenario.
	other := strings.Replace(lossyScenario("fake"), `"maxHorizon": 4`, `"maxHorizon": 3`, 1)
	body := fmt.Sprintf(`{"scenario": %s}`, other)
	resp, err := http.Post(h.ts.URL+"/v1/cells/"+key.String()+"/claim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched claim = %d, want 400", resp.StatusCode)
	}
}

func TestClaimRequiresWorkerMode(t *testing.T) {
	h := newHarness(t, Config{StoreDir: t.TempDir(), Workers: 1})
	doc := lossyScenario("cell-1")
	code, _, _ := h.claim(doc, 1)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("claim on uncoordinated daemon = %d, want 503", code)
	}
}

func TestClaimConflictWhileLeaseLive(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	h := workerHarness(t, storeDir, ckptDir, "w1", nil)
	doc := lossyScenario("cell-1")
	key, _ := cellKey(t, doc)
	// A live peer (simulated via direct lease access) holds the cell.
	peer, err := store.OpenLeases(filepath.Join(ckptDir, "leases"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peer.Acquire(key, "w9", time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	code, _, errBody := h.claim(doc, 1)
	if code != http.StatusConflict || !strings.Contains(errBody, "w9") {
		t.Fatalf("claim against live lease = %d: %s", code, errBody)
	}
}

// stealTemplate is lossyScenario as a one-cell grid, for the coordinator.
const stealTemplate = `{
  "name": "steal",
  "params": {"horizon": [4]},
  "n": 2,
  "graphs": {"L": "2->1", "R": "1->2", "B": "1<->2"},
  "adversary": {"op": "oblivious", "graphs": ["L", "R", "B"]},
  "check": {"maxHorizon": "${horizon}"},
  "expect": "impossible"
}`

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestClaimStealsAndRecomputes is the steal contract, driven by a real
// coordinator so the worker sees the claims a coordinator sends. A dead
// worker left a live lease and, in its own cells/ namespace, a valid
// checkpoint killed after two horizons. The first claim is refused with
// 409 naming the holder; the lease then expires, and the coordinator's
// next claim steals the cell. The thief recomputes it from horizon 1 to
// the verdict and leaves the dead worker's directory byte for byte as it
// was.
func TestClaimStealsAndRecomputes(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	tpl, err := scenario.ParseTemplate([]byte(stealTemplate))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[0].Scenario
	key, err := sweep.KeyFor(sc.Adversary, sc.Options)
	if err != nil {
		t.Fatal(err)
	}
	horizons := 0
	an, err := check.NewAnalyzer(sc.Adversary, check.WithOptions(sc.Options),
		check.WithProgress(func(check.HorizonReport) { horizons++ }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Check(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The dead worker's legacy: a checkpoint killed after two horizons...
	deadDir := filepath.Join(ckptDir, "cells", "w-dead", sweep.CellDir(key))
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	cfg := topocon.CheckpointConfig{Dir: deadDir, OnHorizon: func(r check.HorizonReport) {
		if r.Horizon == 2 {
			cancelRun()
		}
	}}
	if _, info, err := topocon.RunCheckpointed(ctx, sc.Adversary, cfg, sc.Options, 0); err == nil || info.Written != 2 {
		t.Fatalf("setup kill did not leave a checkpoint at horizon 2 (err=%v written=%d)", err, info.Written)
	}
	before := dirBytes(t, deadDir)
	// ...and a held lease.
	leases, err := store.OpenLeases(filepath.Join(ckptDir, "leases"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := leases.Acquire(key, "w-dead", time.Hour, 1); err != nil {
		t.Fatal(err)
	}

	// The worker hits the "horizon" fault point once per analysed horizon.
	// A fail rule one past the plain session's count fires on the probe
	// below only if the thief analysed every horizon from 1.
	faults, err := faultfs.Parse(fmt.Sprintf("fail:horizon:%d", horizons+1))
	if err != nil {
		t.Fatal(err)
	}
	h := workerHarness(t, storeDir, ckptDir, "w2", faults)
	// The dead holder's lease expires as soon as the worker has refused a
	// claim over it, so the coordinator's next poll is the steal.
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err == nil && resp.StatusCode == http.StatusConflict {
			if _, _, lerr := leases.Acquire(key, "w-dead", -time.Second, 1); lerr != nil {
				t.Errorf("expiring the dead holder's lease: %v", lerr)
			}
		}
		return resp, err
	})}
	report, stats, err := coord.Run(context.Background(), tpl, coord.Config{
		Workers:  []string{h.ts.URL},
		LeaseTTL: 200 * time.Millisecond,
		Retry:    retry.Policy{Base: 2 * time.Millisecond, Max: 30 * time.Millisecond},
		Client:   client,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := report.Cells[0]
	if res.StolenFrom != "w-dead" || res.Attempt != 2 || res.Worker != "w2" || stats.Steals != 1 {
		t.Fatalf("steal provenance = %+v (coordinator stats %+v)", res, stats)
	}
	if res.Verdict != "impossible" || res.Status != sweep.StatusDone {
		t.Fatalf("stolen cell result = %+v", res)
	}
	if !errors.Is(faults.Hit("horizon", res.Name), faultfs.ErrInjected) {
		t.Errorf("the thief did not analyse all %d horizons from 1", horizons)
	}
	if after := dirBytes(t, deadDir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Errorf("the dead worker's directory changed: %d files before, %d after", len(before), len(after))
	}
	m := h.metrics()
	if m.Leases == nil || m.Leases.Stolen != 1 || m.Leases.CellRetries != 1 {
		t.Fatalf("steal metrics = %+v", m.Leases)
	}
}

// dirBytes reads every file under dir, keyed by its path relative to dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s holds no files", dir)
	}
	return files
}

func TestClaimLeaseWriteFaultIsRetryable(t *testing.T) {
	faults, err := faultfs.Parse("fail:lease:1")
	if err != nil {
		t.Fatal(err)
	}
	h := workerHarness(t, t.TempDir(), t.TempDir(), "w1", faults)
	doc := lossyScenario("cell-1")
	code, _, errBody := h.claim(doc, 1)
	if code != http.StatusInternalServerError || !strings.Contains(errBody, "lease") {
		t.Fatalf("claim under lease fault = %d: %s", code, errBody)
	}
	// The failed acquire never took effect; the retry dispatch succeeds.
	code, res, errBody := h.claim(doc, 2)
	if code != http.StatusOK || res.Status != sweep.StatusDone {
		t.Fatalf("retry claim = %d: %s", code, errBody)
	}
}

// TestDrainReleasesHeldLeases pins the SIGTERM satellite: a worker
// frozen mid-cell (injected stall) holds a live lease; Shutdown aborts
// the solve and the lease ends *released* on disk — successors claim
// immediately instead of waiting out the TTL.
func TestDrainReleasesHeldLeases(t *testing.T) {
	faults, err := faultfs.Parse("stall:horizon:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.ReleaseStalls)
	h := workerHarness(t, t.TempDir(), t.TempDir(), "w1", faults)
	doc := lossyScenario("cell-1")
	key, _ := cellKey(t, doc)

	claimDone := make(chan int, 1)
	go func() {
		code, _, _ := h.claim(doc, 1)
		claimDone <- code
	}()

	// Wait until the stalled claim holds a live lease.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if lease, ok := h.svc.leases.Get(key); ok && lease.Live(time.Now()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("claim never acquired its lease")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- h.svc.Shutdown(ctx)
	}()
	// The solve is wedged inside the stall hook; unblock it so the abort
	// can propagate (the SIGKILL variant of this scenario is the CI chaos
	// E2E's job — here we only care that drain releases, not abandons).
	time.Sleep(20 * time.Millisecond)
	faults.ReleaseStalls()

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case code := <-claimDone:
		if code != http.StatusServiceUnavailable && code != http.StatusOK {
			t.Fatalf("drained claim = %d, want 503 (or a photo-finish 200)", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("claim handler never returned after drain")
	}
	lease, ok := h.svc.leases.Get(key)
	if !ok || lease.State != store.LeaseReleased {
		t.Fatalf("post-drain lease = %+v, %v; want released", lease, ok)
	}
}

func TestReleaseEndpoint(t *testing.T) {
	h := workerHarness(t, t.TempDir(), t.TempDir(), "w1", nil)
	doc := lossyScenario("cell-1")
	key, _ := cellKey(t, doc)

	// Nothing held: 404.
	resp, err := http.Post(h.ts.URL+"/v1/cells/"+key.String()+"/release", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("release with nothing held = %d, want 404", resp.StatusCode)
	}

	// A held (but not actively claimed) lease is released on request.
	if _, _, err := h.svc.leases.Acquire(key, "w1", time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(h.ts.URL+"/v1/cells/"+key.String()+"/release", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release of held lease = %d, want 200", resp.StatusCode)
	}
	if lease, ok := h.svc.leases.Get(key); !ok || lease.State != store.LeaseReleased {
		t.Fatalf("lease after release = %+v, %v", lease, ok)
	}
}
