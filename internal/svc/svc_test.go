package svc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lossyScenario is a concrete 2-process lossy-link scenario; name does not
// enter the cache key, so different names stay behaviourally isomorphic.
func lossyScenario(name string) string {
	return fmt.Sprintf(`{
	  "name": %q,
	  "n": 2,
	  "graphs": {"L": "2->1", "R": "1->2", "B": "1<->2"},
	  "adversary": {"op": "oblivious", "graphs": ["L", "R", "B"]},
	  "check": {"maxHorizon": 4},
	  "expect": "impossible"
	}`, name)
}

const lossboundTemplate = `{
  "name": "lossbound-grid",
  "params": {"f": "0..3", "horizon": [3, 4]},
  "n": 2,
  "adversary": {"op": "loss-bounded", "f": "${f}"},
  "check": {"maxHorizon": "${horizon}"}
}`

// harness boots a Service plus an httptest server over its Handler.
type harness struct {
	t   *testing.T
	svc *Service
	ts  *httptest.Server
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	h := &harness{t: t, svc: s, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return h
}

// getJSON decodes a GET response body into out and returns the status.
func (h *harness) getJSON(path string, out any) int {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			h.t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// submit POSTs a document and returns the response status and parsed ack.
func (h *harness) submit(doc string) (int, submitResponse) {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack submitResponse
	json.NewDecoder(resp.Body).Decode(&ack)
	return resp.StatusCode, ack
}

// await polls a job until it reaches a terminal status.
func (h *harness) await(id string) JobView {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := h.getJSON("/v1/jobs/"+id, &v); code != http.StatusOK {
			h.t.Fatalf("GET job %s: status %d", id, code)
		}
		if terminal(v.Status) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("job %s never finished", id)
	return JobView{}
}

// metrics fetches /metrics.
func (h *harness) metrics() Metrics {
	h.t.Helper()
	var m Metrics
	if code := h.getJSON("/metrics", &m); code != http.StatusOK {
		h.t.Fatalf("GET /metrics: status %d", code)
	}
	return m
}

// TestConcurrentIsomorphicSubmissions is the satellite-4 dedup proof over
// the HTTP boundary: two behaviourally isomorphic scenarios submitted
// concurrently construct exactly one Analyzer — the cache's singleflight
// spans jobs, not just cells. Run under -race.
func TestConcurrentIsomorphicSubmissions(t *testing.T) {
	h := newHarness(t, Config{StoreDir: t.TempDir(), Workers: 2})

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, ack := h.submit(lossyScenario(fmt.Sprintf("iso-%d", i)))
			if code != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, code)
				return
			}
			ids[i] = ack.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	verdicts := map[string]int{}
	for _, id := range ids {
		v := h.await(id)
		if v.Status != StatusDone || v.Report == nil || len(v.Report.Cells) != 1 {
			t.Fatalf("job %s = %+v", id, v)
		}
		verdicts[v.Report.Cells[0].Verdict]++
	}
	if verdicts["impossible"] != 2 {
		t.Fatalf("verdicts = %v, want 2× impossible", verdicts)
	}
	m := h.metrics()
	if m.Sessions.AnalyzersConstructed != 1 {
		t.Fatalf("isomorphic submissions constructed %d analyzers, want 1", m.Sessions.AnalyzersConstructed)
	}
	if m.Jobs.Done != 2 || m.Cache.Keys != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRestartResubmitServesFromDisk is the satellite-4 persistence proof:
// after a restart over the same store directory, resubmitting the same
// template constructs zero Analyzer sessions — every cell is served from
// the disk tier, and /v1/verdicts answers from the persistent corpus.
func TestRestartResubmitServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	h1 := newHarness(t, Config{StoreDir: dir, Workers: 2})
	code, ack := h1.submit(lossboundTemplate)
	if code != http.StatusAccepted || ack.Cells != 8 {
		t.Fatalf("submit: %d, %+v", code, ack)
	}
	v := h1.await(ack.ID)
	if v.Status != StatusDone || v.Report.Summary.Done != 8 {
		t.Fatalf("first run = %+v", v)
	}
	built := h1.metrics().Sessions.AnalyzersConstructed
	if built == 0 || built > 8 {
		t.Fatalf("first run constructed %d analyzers", built)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h1.svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h1.ts.Close()

	// Restart: fresh service over the same store directory.
	h2 := newHarness(t, Config{StoreDir: dir, Workers: 2})
	if got := h2.svc.Store().Len(); got != int(built) {
		t.Fatalf("store reopened with %d records, want %d", got, built)
	}
	code, ack = h2.submit(lossboundTemplate)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	v = h2.await(ack.ID)
	if v.Status != StatusDone || v.Report.Summary.Done != 8 {
		t.Fatalf("second run = %+v", v)
	}
	for _, c := range v.Report.Cells {
		if c.CacheTier != "disk" {
			t.Fatalf("cell %s served from %q, want disk: %+v", c.Name, c.CacheTier, c)
		}
	}
	m := h2.metrics()
	if m.Sessions.AnalyzersConstructed != 0 {
		t.Fatalf("restart constructed %d analyzers, want 0", m.Sessions.AnalyzersConstructed)
	}
	if m.Cache.DiskHits != 8 || m.Cache.Computes != 0 {
		t.Fatalf("cache metrics = %+v", m.Cache)
	}

	// The verdict endpoint serves every stored key from the disk tier.
	for _, key := range h2.svc.Store().Keys() {
		var vr verdictResponse
		path := "/v1/verdicts/" + url.PathEscape(key.String())
		if code := h2.getJSON(path, &vr); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		if vr.Tier != "disk" || vr.Key != key.String() {
			t.Fatalf("verdict = %+v", vr)
		}
	}
}

// jobDocs lists the persisted job documents under a checkpoint dir.
func jobDocs(t *testing.T, checkpointDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(checkpointDir, "jobs"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), jobDocExt) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestJobResumeAcrossRestart pins job durability: an accepted job's
// document lives under CheckpointDir/jobs until the job reaches a verdict;
// a daemon that starts over leftover documents (a predecessor died mid-job)
// re-submits them, marks them resumed, and reports the count in /metrics.
func TestJobResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CheckpointDir: dir, PagerHotBytes: 1}

	// A job that completes leaves no document behind.
	h1 := newHarness(t, cfg)
	code, ack := h1.submit(lossyScenario("before-restart"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if v := h1.await(ack.ID); v.Status != StatusDone {
		t.Fatalf("first job = %+v", v)
	}
	if docs := jobDocs(t, dir); len(docs) != 0 {
		t.Fatalf("documents left after a done job: %v", docs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h1.svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h1.ts.Close()

	// Simulate a daemon killed mid-job: an accepted document still on disk.
	// (A SIGKILL can't be staged deterministically in-process, so the
	// leftover is planted directly — it is just the raw submission body.)
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeDoc := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(jobsDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeDoc("j-000007.job", lossyScenario("killed-mid-run"))
	writeDoc("j-000002.job", "{not a document") // corrupt leftover

	h2 := newHarness(t, cfg)
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := h2.getJSON("/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	var resumed *JobView
	for i := range list.Jobs {
		if list.Jobs[i].Resumed {
			resumed = &list.Jobs[i]
		}
	}
	if resumed == nil {
		t.Fatalf("no resumed job in %+v", list.Jobs)
	}
	// Re-submitted jobs get ids past every leftover's, so their documents
	// can never collide with files the resume scan is still consuming.
	if resumed.ID <= "j-000007" {
		t.Fatalf("resumed job id %s not past the leftover's", resumed.ID)
	}
	v := h2.await(resumed.ID)
	if v.Status != StatusDone || !v.Resumed {
		t.Fatalf("resumed job = %+v", v)
	}
	if v.Report == nil || len(v.Report.Cells) != 1 || v.Report.Cells[0].Verdict != "impossible" {
		t.Fatalf("resumed job report = %+v", v.Report)
	}

	m := h2.metrics()
	if m.Paging == nil {
		t.Fatal("no paging section in /metrics despite CheckpointDir")
	}
	if m.Paging.JobsResumed != 1 {
		t.Fatalf("jobsResumed = %d, want 1", m.Paging.JobsResumed)
	}
	if m.Paging.PagesSpilled == 0 {
		t.Fatalf("paging gauges never moved: %+v", m.Paging)
	}
	// The corrupt leftover was moved aside, not deleted or resubmitted.
	if found, _ := filepath.Glob(filepath.Join(jobsDir, "quarantine", "job.*", "j-000002.job")); len(found) != 1 {
		t.Fatalf("corrupt document not quarantined: %v", found)
	}
	// The resumed job's fresh document was removed once it finished.
	if docs := jobDocs(t, dir); len(docs) != 0 {
		t.Fatalf("documents left after resume: %v", docs)
	}
}

// TestResumeQuarantinesLeftovers: a daemon booting over an unparsable
// job document and the `*.tmp` sibling of a crashed persistJob moves both
// into jobs/quarantine/ with their bytes intact, and leaves neither (nor a
// `.bad` rename) in the jobs directory.
func TestResumeQuarantinesLeftovers(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	leftovers := map[string]string{
		"j-000002.job":         "{not a document",
		"j-000003.job.123.tmp": `{"name": "torn`,
	}
	for name, body := range leftovers {
		if err := os.WriteFile(filepath.Join(jobsDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	newHarness(t, Config{Workers: 1, CheckpointDir: dir})
	for name, body := range leftovers {
		found, _ := filepath.Glob(filepath.Join(jobsDir, "quarantine", "*", name))
		if len(found) != 1 {
			t.Fatalf("%s: quarantined copies %v", name, found)
		}
		if got, err := os.ReadFile(found[0]); err != nil || string(got) != body {
			t.Errorf("%s: quarantined bytes %q (%v), want %q", name, got, err, body)
		}
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			t.Errorf("left in the jobs directory: %s", e.Name())
		}
	}
}

// TestEventStream replays and follows a job's progress as ndjson: the
// queued/started framing, at least one horizon event per solving cell, one
// cell event, and the terminal done event with a summary.
func TestEventStream(t *testing.T) {
	h := newHarness(t, Config{StoreDir: t.TempDir(), Workers: 1})
	code, ack := h.submit(lossyScenario("streamed"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + ack.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var e Event
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", scanner.Text(), err)
		}
		events = append(events, e)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	types := map[string]int{}
	for i, e := range events {
		if e.Seq != i+1 || e.Job != ack.ID {
			t.Fatalf("event %d framing = %+v", i, e)
		}
		types[e.Type]++
	}
	if types["queued"] != 1 || types["started"] != 1 || types["cell"] != 1 || types["done"] != 1 {
		t.Fatalf("event types = %v", types)
	}
	if types["horizon"] < 1 {
		t.Fatalf("no horizon progress events: %v", types)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Summary == nil || last.Summary.Done != 1 {
		t.Fatalf("terminal event = %+v", last)
	}

	// SSE default framing on a finished job: full replay, event: lines.
	resp2, err := http.Get(h.ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if ct := resp2.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "event: done\ndata: ") {
		t.Fatalf("SSE replay lacks the terminal event: %q", body)
	}
}

// TestBackpressureAndLimits drives the admission-control surface: queue
// overflow is 429, oversized bodies are 413, malformed documents are 400,
// the busy gauge reflects held slots — all while /healthz stays 200.
func TestBackpressureAndLimits(t *testing.T) {
	h := newHarness(t, Config{
		StoreDir:     t.TempDir(),
		Workers:      1,
		MaxQueue:     1,
		MaxBodyBytes: 2048,
	})
	// Occupy the only session slot, so the first job blocks mid-run and
	// the second fills the queue.
	h.svc.slots <- struct{}{}

	code, ackA := h.submit(lossyScenario("blocked-a"))
	if code != http.StatusAccepted {
		t.Fatalf("submit A: status %d", code)
	}
	// Wait until the runner has dequeued A (status running, blocked on the
	// slot) so B deterministically lands in the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v JobView
		h.getJSON("/v1/jobs/"+ackA.ID, &v)
		if v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	codeB, ackB := h.submit(lossyScenario("queued-b"))
	if codeB != http.StatusAccepted {
		t.Fatalf("submit B: status %d", codeB)
	}
	codeC, _ := h.submit(lossyScenario("rejected-c"))
	if codeC != http.StatusTooManyRequests {
		t.Fatalf("submit C: status %d, want 429", codeC)
	}

	m := h.metrics()
	if m.Sessions.Busy != 1 || m.Sessions.PoolSize != 1 {
		t.Fatalf("session metrics = %+v", m.Sessions)
	}
	if m.Jobs.Rejected != 1 {
		t.Fatalf("job metrics = %+v", m.Jobs)
	}
	if code := h.getJSON("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz under load: %d", code)
	}

	// Malformed and oversized submissions are rejected at the door.
	if code, _ := h.submit(`{"name": "broken"`); code != http.StatusBadRequest {
		t.Fatalf("malformed doc: status %d, want 400", code)
	}
	if code, _ := h.submit(`{"pad": "` + strings.Repeat("x", 4096) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized doc: status %d, want 413", code)
	}
	if code, _ := h.submit(`{"name":"t","params":{"f":"0..1"},"n":2,"adversary":{"op":"loss-bounded","f":"${f}","bogus":1},"check":{"maxHorizon":3}}`); code != http.StatusBadRequest {
		t.Fatalf("invalid template: status %d, want 400", code)
	}

	// Release the slot: A and B drain to completion.
	<-h.svc.slots
	if v := h.await(ackA.ID); v.Status != StatusDone {
		t.Fatalf("job A = %+v", v)
	}
	if v := h.await(ackB.ID); v.Status != StatusDone {
		t.Fatalf("job B = %+v", v)
	}
}

// TestGracefulShutdownPartialReport: shutting down mid-job cancel-stamps
// it with a well-formed partial report, rejects new submissions with 503,
// and flips /healthz to 503.
func TestGracefulShutdownPartialReport(t *testing.T) {
	h := newHarness(t, Config{StoreDir: t.TempDir(), Workers: 1})
	// Hold the slot so the job is running but cannot finish any cell.
	h.svc.slots <- struct{}{}
	code, ack := h.submit(lossboundTemplate)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v JobView
		h.getJSON("/v1/jobs/"+ack.ID, &v)
		if v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-h.svc.slots // release after cancellation; the worker already gave up

	v := h.await(ack.ID)
	if v.Status != StatusCancelled || v.Report == nil {
		t.Fatalf("job after shutdown = %+v", v)
	}
	sum := v.Report.Summary
	if sum.Cells != 8 || sum.Cancelled == 0 || sum.Cells != sum.Done+sum.Errors+sum.Cancelled {
		t.Fatalf("partial report summary = %+v", sum)
	}
	if code, _ := h.submit(lossyScenario("late")); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", code)
	}
	if code := h.getJSON("/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz: %d, want 503", code)
	}
}

// TestJobListAndLookup: the list endpoint returns jobs in submission
// order; unknown ids and unparseable verdict keys are clean 4xx.
func TestJobListAndLookup(t *testing.T) {
	h := newHarness(t, Config{StoreDir: t.TempDir(), Workers: 2})
	_, a := h.submit(lossyScenario("list-a"))
	_, b := h.submit(lossyScenario("list-b"))
	h.await(a.ID)
	h.await(b.ID)

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := h.getJSON("/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
	if code := h.getJSON("/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
	if code := h.getJSON("/v1/jobs/"+a.ID+"/events", nil); code != http.StatusOK {
		t.Fatalf("events of finished job: status %d", code)
	}
	if code := h.getJSON("/v1/verdicts/not-a-key", nil); code != http.StatusBadRequest {
		t.Fatalf("bad verdict key: status %d", code)
	}
	if len(h.svc.Store().Keys()) == 0 {
		t.Fatal("no stored keys after two jobs")
	}
}
