package svc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestEveryStreamEndsWithTerminalEvent pins the terminal-event contract of
// the event stream over HTTP: every stream of every job ends with the
// job's done/failed/cancelled event. Many short jobs (after the first, all
// cache hits) are queued and followed concurrently, so status flips race
// the streamers' snapshots; run under -race.
func TestEveryStreamEndsWithTerminalEvent(t *testing.T) {
	h := newHarness(t, Config{StoreDir: t.TempDir(), Workers: 2, MaxQueue: 512})
	const jobs = 200
	ids := make([]string, jobs)
	for i := range ids {
		code, ack := h.submit(lossyScenario(fmt.Sprintf("short-%d", i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids[i] = ack.ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := http.Get(h.ts.URL + "/v1/jobs/" + id + "/events?format=ndjson")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var last Event
			scanner := bufio.NewScanner(resp.Body)
			for scanner.Scan() {
				if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
					errs <- fmt.Errorf("job %s: bad event line %q: %v", id, scanner.Text(), err)
					return
				}
			}
			if err := scanner.Err(); err != nil {
				errs <- fmt.Errorf("job %s: %v", id, err)
				return
			}
			if !terminal(last.Type) {
				errs <- fmt.Errorf("job %s: stream ended with %q, not a terminal event", id, last.Type)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFinishedJobsLeaveNoDocument pins the ordering between persisting a
// job's document and queueing the job: a runner may dequeue, finish and
// retire a job before submit returns, so a document written after the
// queue send would outlive the verdict. Cache-hit jobs finish within
// microseconds, well inside a document write's fsync.
func TestFinishedJobsLeaveNoDocument(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Config{Workers: 2, MaxQueue: 512, CheckpointDir: dir})
	const jobs = 100
	ids := make([]string, jobs)
	for i := range ids {
		j, err := buildJob([]byte(lossyScenario(fmt.Sprintf("doc-%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.svc.submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.id
		if i == 0 {
			h.await(j.id) // later jobs are memory-cache hits
		}
	}
	for _, id := range ids {
		if v := h.await(id); v.Status != StatusDone {
			t.Fatalf("job %s = %+v", id, v)
		}
	}
	if docs := jobDocs(t, dir); len(docs) != 0 {
		t.Fatalf("%d of %d finished jobs left their document: %v", len(docs), jobs, docs)
	}
}

// TestSnapshotNeverSeesTerminalStatusWithoutEvent hammers the invariant the
// stream relies on at the job level: a snapshot that reports the job
// finished already holds the terminal event. The stream handler returns on
// the first finished snapshot with no new events, so a status published
// ahead of its event would end a stream without it.
func TestSnapshotNeverSeesTerminalStatusWithoutEvent(t *testing.T) {
	for round := 0; round < 2000; round++ {
		j := &job{id: "j", status: StatusRunning, changed: make(chan struct{})}
		j.append(Event{Type: "started"})
		done := make(chan struct{})
		go func() {
			defer close(done)
			j.finish(StatusDone, "", nil)
		}()
		for {
			evts, _, finished := j.snapshot(0)
			if finished {
				if last := evts[len(evts)-1]; last.Type != StatusDone {
					t.Fatalf("round %d: finished snapshot ends with %q", round, last.Type)
				}
				break
			}
		}
		<-done
	}
}
