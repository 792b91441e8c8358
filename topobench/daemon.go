package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"topocon/internal/svc"
	"topocon/internal/sweep"
)

// The daemon workloads replay a seeded stream against the real topoconsvc
// binary in its documented production configuration (-store-dir, no
// -checkpoint-dir), with -workers 2, from two closed-loop clients that
// each submit a document and follow its event stream to the terminal
// event before submitting the next.
const (
	// streamDocs is the length of one pass over the stream.
	streamDocs = 400
	clients    = 2
	svcWorkers = 2
	// minPasses is the least number of timed passes a run makes.
	minPasses = 2
	// extraBoots: a cold pass boots and stops this many daemons on its
	// empty store before the one it measures, for more setup_s samples.
	extraBoots = 4
)

// daemonProc is one running topoconsvc.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon execs topoconsvc on storeDir and waits for /healthz to answer
// 200; it returns the time from exec to that answer. The port is picked
// free just before the exec, so a daemon that exits at start-up (another
// process took the port) is retried on a new one.
func startDaemon(bin, storeDir, logPath string) (*daemonProc, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemonProc
		var setup time.Duration
		if d, setup, err = bootDaemon(bin, storeDir, logPath); err == nil {
			return d, setup, nil
		}
	}
	return nil, 0, err
}

func bootDaemon(bin, storeDir, logPath string) (*daemonProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", storeDir, "-workers", fmt.Sprint(svcWorkers))
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemonProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("topoconsvc exited during start-up (log %s)", logPath)
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("topoconsvc did not become healthy within 30s (log %s)", logPath)
}

// stop sends SIGTERM and waits for the process to exit, killing it after a
// grace period.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemonProc) pid() int { return d.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// jobOutcome is what a client observed of one job.
type jobOutcome struct {
	id       string
	doc      int
	status   string
	cells    map[string]sweep.CellResult
	latency  time.Duration
	received time.Time
	rejected int
	// resubscribes counts event streams that ended before the terminal
	// event (see runJob).
	resubscribes int
	view         *svc.JobView // traced passes only
}

// passResult is one timed replay of the stream.
type passResult struct {
	setups    []time.Duration
	wall, cpu time.Duration
	rss       float64
	jobs      []jobOutcome
	metrics   svc.Metrics
}

// runPass boots a daemon on storeDir, replays docs, reads /metrics and
// VmHWM, and stops the daemon.
func (b *bench) runPass(storeDir string, docs []Doc, traced bool, boots int) (passResult, error) {
	var p passResult
	bin, logPath := filepath.Join(b.build, "bin", "topoconsvc"), filepath.Join(b.work, "topoconsvc.log")
	for i := 0; i < boots; i++ {
		d, setup, err := startDaemon(bin, storeDir, logPath)
		if err != nil {
			return p, err
		}
		d.stop()
		p.setups = append(p.setups, setup)
	}
	d, setup, err := startDaemon(bin, storeDir, logPath)
	if err != nil {
		return p, err
	}
	defer d.stop()
	p.setups = append(p.setups, setup)
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	p.jobs, err = replay(d.base, docs)
	p.wall = time.Since(t0)
	if err != nil {
		return p, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	if err := getJSON(http.DefaultClient, d.base+"/metrics", &p.metrics); err != nil {
		return p, err
	}
	if traced {
		// One listing after the replay carries every job's timestamps, so
		// the traced pass sends the daemon nothing extra while it runs.
		var list struct {
			Jobs []svc.JobView `json:"jobs"`
		}
		if err := getJSON(http.DefaultClient, d.base+"/v1/jobs", &list); err != nil {
			return p, err
		}
		views := map[string]*svc.JobView{}
		for i := range list.Jobs {
			views[list.Jobs[i].ID] = &list.Jobs[i]
		}
		for i := range p.jobs {
			if p.jobs[i].view = views[p.jobs[i].id]; p.jobs[i].view == nil {
				return p, fmt.Errorf("job %s missing from the daemon's job list", p.jobs[i].id)
			}
		}
	}
	p.rss, err = peakRSS(fmt.Sprint(d.pid()))
	return p, err
}

// replay runs the closed loop: clients goroutines take the next document,
// submit it and follow its events to the terminal one. The passes are no
// longer than the daemon's retained-job bound (512), so every job of a
// pass is still listed afterwards.
func replay(base string, docs []Doc) ([]jobOutcome, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	out := make([]jobOutcome, len(docs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) || errs[c] != nil {
					return
				}
				out[i], errs[c] = runJob(client, base, docs[i].Body)
				out[i].doc = i
			}
		}(c)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// runJob submits one document and follows its SSE stream to the terminal
// event; latency runs from the POST to the receipt of that event.
func runJob(client *http.Client, base string, body []byte) (jobOutcome, error) {
	o := jobOutcome{cells: map[string]sweep.CellResult{}}
	t0 := time.Now()
	var id string
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return o, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			o.rejected++
			time.Sleep(time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return o, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &ack); err != nil {
			return o, fmt.Errorf("submit: %v", err)
		}
		id = ack.ID
		break
	}
	// topoconsvc can end an event stream without its terminal event: the
	// job's status turns terminal under the lock before the terminal event
	// is appended, and a streamer that snapshots in between returns. The
	// event log is replayed in full on every subscription, so the client
	// subscribes again until it sees the terminal event.
	for o.status == "" {
		if o.resubscribes > 100 {
			return o, fmt.Errorf("job %s: no terminal event after %d subscriptions", id, o.resubscribes)
		}
		if err := follow(client, base, id, t0, &o); err != nil {
			return o, err
		}
		if o.status == "" {
			o.resubscribes++
		}
	}
	o.id = id
	return o, nil
}

// follow reads one subscription of a job's SSE stream, recording cell
// results and, if it arrives, the terminal event.
func follow(client *http.Client, base, id string, t0 time.Time, o *jobOutcome) error {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e svc.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return fmt.Errorf("event: %v", err)
		}
		switch e.Type {
		case "cell":
			if e.Result != nil {
				o.cells[e.Result.Name] = *e.Result
			}
		case svc.StatusDone, svc.StatusFailed, svc.StatusCancelled:
			o.latency, o.received = time.Since(t0), time.Now()
			o.status = e.Type
		}
	}
	return sc.Err()
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runDaemon is the daemon-cold (warm=false) and daemon-warm workload.
func runDaemon(ctx context.Context, b *bench, warm bool) error {
	templates, err := loadTemplates(b.root)
	if err != nil {
		return err
	}
	docs := generateStream(b.seed, streamDocs, templates)
	// Cold passes each start from an empty store; warm passes share the
	// store one untimed cold pass filled.
	warmStore := filepath.Join(b.work, "store")
	if warm {
		if _, err := b.runPass(warmStore, docs, false, 0); err != nil {
			return fmt.Errorf("filling the store: %w", err)
		}
	}
	storeFor := func(pass int) (string, error) {
		if warm {
			return warmStore, nil
		}
		dir := filepath.Join(b.work, fmt.Sprintf("store-%d", pass))
		return dir, os.RemoveAll(dir)
	}

	var passes, tracedPasses []passResult
	for deadline := time.Now().Add(b.seconds); ; {
		more := len(passes) < minPasses || time.Now().Before(deadline)
		if b.trace {
			more = len(tracedPasses) < 1 || len(passes) < 1 || time.Now().Before(deadline)
		}
		if !more {
			break
		}
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead is the ratio of their walls.
		traced := b.trace && len(tracedPasses) < len(passes)
		dir, err := storeFor(len(passes) + len(tracedPasses))
		if err != nil {
			return err
		}
		boots := extraBoots
		if warm {
			boots = 0
		}
		p, err := b.runPass(dir, docs, traced, boots)
		if err != nil {
			return err
		}
		if traced {
			tracedPasses = append(tracedPasses, p)
		} else {
			passes = append(passes, p)
		}
		if !warm {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}

	wantTier := "memory"
	if warm {
		wantTier = "disk"
	}
	expected, err := expectedVerdicts(ctx, docs)
	if err != nil {
		return err
	}
	for _, p := range append(passes, tracedPasses...) {
		for _, o := range p.jobs {
			b.count(b.checkJob(docs[o.doc], o, expected[o.doc], wantTier, warm))
		}
	}
	if !b.trace {
		b.reportPasses(passes)
		return nil
	}
	return b.traceDaemon(ctx, docs, expected, passes, tracedPasses, warm, warmStore)
}

// checkJob validates one job: it ended done, every cell is done with the
// in-process verdict, respellings are hits of the expected tier, and on a
// warm store every cell is a disk hit.
func (b *bench) checkJob(doc Doc, o jobOutcome, want map[string]string, wantTier string, warm bool) bool {
	ok := b.expect(o.status == svc.StatusDone, "%s: job ended %q", doc.Name, o.status)
	ok = b.expect(len(o.cells) == len(want), "%s: %d cells reported, want %d", doc.Name, len(o.cells), len(want)) && ok
	for name, verdict := range want {
		c := o.cells[name]
		ok = b.expect(c.Status == sweep.StatusDone && c.Verdict == verdict,
			"%s: cell %s status %q verdict %q, in-process verdict %q", doc.Name, name, c.Status, c.Verdict, verdict) && ok
		if doc.Kind == "respell" || warm {
			ok = b.expect(c.CacheHit && c.CacheTier == wantTier,
				"%s: cell %s cache hit %v tier %q, want a %s hit", doc.Name, name, c.CacheHit, c.CacheTier, wantTier) && ok
		}
	}
	return ok
}

// reportPasses fills the end-to-end metrics of a daemon workload.
func (b *bench) reportPasses(passes []passResult) {
	var setups, walls, rss, rates, lat []float64
	var cpu time.Duration
	rejected, resubscribes := 0, 0
	for _, p := range passes {
		for _, d := range p.setups {
			setups = append(setups, d.Seconds())
		}
		walls = append(walls, p.wall.Seconds())
		cpu += p.cpu
		rss = append(rss, p.rss)
		rates = append(rates, float64(len(p.jobs))/p.wall.Seconds())
		for _, o := range p.jobs {
			lat = append(lat, ms(o.latency))
			rejected += o.rejected
			resubscribes += o.resubscribes
		}
	}
	b.metric("setup_s", median(setups), "s")
	b.metric("wall_s", median(walls), "s")
	// /proc CPU times tick at 10 ms, coarse against a short warm pass, so
	// cpu_s is the mean over passes.
	b.metric("cpu_s", cpu.Seconds()/float64(len(passes)), "s")
	b.metric("jobs_per_s", median(rates), "1/s")
	b.metric("job_p50_ms", quantile(lat, 0.5), "ms")
	b.metric("job_p90_ms", quantile(lat, 0.9), "ms")
	b.metric("peak_rss_mb", median(rss), "MiB")
	b.info["samples"] = len(lat)
	qs := map[string]float64{}
	for _, q := range []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99} {
		qs[fmt.Sprintf("p%g", q*100)] = quantile(lat, q)
	}
	b.info["latency_ms"] = qs
	b.info["passes"] = len(passes)
	b.info["rejected"] = rejected
	b.info["sse_resubscribes"] = resubscribes
	b.info["stream"] = streamMix(passes[0])
}

// streamMix summarizes one pass: verdict mix over cells, and cache-hit
// share over cells.
func streamMix(p passResult) map[string]any {
	verdicts := map[string]int{}
	cells, hits := 0, 0
	for _, o := range p.jobs {
		for _, c := range o.cells {
			verdicts[c.Verdict]++
			cells++
			if c.CacheHit {
				hits++
			}
		}
	}
	return map[string]any{"jobs": len(p.jobs), "cells": cells, "verdicts": verdicts,
		"hit_share": float64(hits) / float64(max(cells, 1))}
}
