package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/scenario"
	"topocon/internal/store"
	"topocon/internal/sweep"
)

// parseDoc parses a submission the way the daemon does: a template is
// parsed and expanded into its grid, a scenario is a one-cell grid.
func parseDoc(body []byte) ([]scenario.Cell, error) {
	if scenario.IsTemplate(body) {
		tpl, err := scenario.ParseTemplate(body)
		if err != nil {
			return nil, err
		}
		return tpl.Expand()
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		return nil, err
	}
	return []scenario.Cell{{Scenario: sc}}, nil
}

// expectedVerdicts runs an in-process check.Analyzer session for every
// cell of every distinct document, on clients goroutines, and returns the
// verdict per document and cell name.
func expectedVerdicts(ctx context.Context, docs []Doc) ([]map[string]string, error) {
	byBody := map[string][]int{}
	var order []string
	for i, d := range docs {
		k := string(d.Body)
		if _, ok := byBody[k]; !ok {
			order = append(order, k)
		}
		byBody[k] = append(byBody[k], i)
	}
	results := make([]map[string]string, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = checkDoc(ctx, []byte(order[i]))
			}
		}()
	}
	for i := range order {
		work <- i
	}
	close(work)
	wg.Wait()
	out := make([]map[string]string, len(docs))
	for i, k := range order {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, d := range byBody[k] {
			out[d] = results[i]
		}
	}
	return out, nil
}

func checkDoc(ctx context.Context, body []byte) (map[string]string, error) {
	cells, err := parseDoc(body)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, c := range cells {
		a, err := check.NewAnalyzer(c.Scenario.Adversary, check.WithOptions(c.Scenario.Options))
		if err != nil {
			return nil, err
		}
		res, err := a.Check(ctx)
		if err != nil {
			return nil, err
		}
		out[c.Scenario.Name] = res.Verdict.String()
	}
	return out, nil
}

// timedTier wraps the verdict store as the cache's backing tier, recording
// a span around every Get and Put under the current cache span.
type timedTier struct {
	st     *store.Store
	tr     *tracer
	parent int
}

func (t *timedTier) Get(k sweep.Key) (out sweep.Outcome, ok bool) {
	t.tr.do("store.get", t.parent, func() { out, ok = t.st.Get(k) })
	return out, ok
}

func (t *timedTier) Put(k sweep.Key, out sweep.Outcome) (err error) {
	t.tr.do("store.put", t.parent, func() { err = t.st.Put(k, out) })
	return err
}

// traceDaemon reports the per-layer metrics of a daemon workload. The svc
// and sweep layers come from the traced passes: JobView timestamps per job
// and the daemon's /metrics. The other layers come from an in-process
// replay of the same stream through the public functions the daemon's job
// path calls, in its order: scenario parsing and template expansion,
// sweep.KeyFor, the tiered cache over store.Open's store (Get, then on a
// miss the analysis session and Put). Its verdicts must equal the daemon's.
func (b *bench) traceDaemon(ctx context.Context, docs []Doc, expected []map[string]string, passes, tracedPasses []passResult, warm bool, warmStore string) error {
	// Each traced job becomes a span from the POST to the receipt of its
	// terminal event, with the daemon's queue wait, run and event lag as
	// children; what they leave uncovered is the HTTP round trips.
	m := map[string]float64{}
	jt := b.newTracer()
	var queue, run, lag, http, plain, traced []float64
	for _, p := range tracedPasses {
		traced = append(traced, p.wall.Seconds())
		for _, o := range p.jobs {
			v := o.view
			if v == nil || v.Started == nil || v.Finished == nil {
				return fmt.Errorf("job %s: no timestamps in its JobView", o.id)
			}
			job := jt.add("svc.job", -1, o.received.Add(-o.latency), o.received)
			jt.add("svc.queue_wait", job, v.Submitted, *v.Started)
			jt.add("svc.run", job, *v.Started, *v.Finished)
			jt.add("svc.event_lag", job, *v.Finished, o.received)
			queue = append(queue, ms(v.Started.Sub(v.Submitted)))
			run = append(run, ms(v.Finished.Sub(*v.Started)))
			lag = append(lag, ms(o.received.Sub(*v.Finished)))
			http = append(http, ms(o.latency)-queue[len(queue)-1]-run[len(run)-1]-lag[len(lag)-1])
		}
	}
	for _, p := range passes {
		plain = append(plain, p.wall.Seconds())
	}
	last := tracedPasses[len(tracedPasses)-1].metrics
	m["svc.queue_wait_ms"] = median(queue)
	m["svc.run_ms"] = median(run)
	m["svc.event_lag_ms"] = median(lag)
	m["svc.http_ms"] = median(http)
	m["svc.rejected"] = float64(last.Jobs.Rejected)
	m["svc.analyzers_constructed"] = float64(last.Sessions.AnalyzersConstructed)
	c := last.Cache
	m["sweep.memory_hits"] = float64(c.MemoryHits)
	m["sweep.disk_hits"] = float64(c.DiskHits)
	m["sweep.computes"] = float64(c.Computes)
	if total := c.MemoryHits + c.DiskHits + c.Computes; total > 0 {
		m["sweep.hit_ratio"] = float64(c.MemoryHits+c.DiskHits) / float64(total)
	}
	if last.Store != nil {
		m["store.records"] = float64(last.Store.Records)
	}

	storeDir := warmStore
	if !warm {
		storeDir = filepath.Join(b.work, "inproc-store")
		if err := os.RemoveAll(storeDir); err != nil {
			return err
		}
	}
	tr := b.newTracer()
	var sum sessionStats
	t0 := time.Now()
	var st *store.Store
	var err error
	tr.do("store.open", -1, func() { st, err = store.Open(storeDir) })
	if err != nil {
		return err
	}
	tier := &timedTier{st: st, tr: tr}
	cache := sweep.NewTieredCache(tier)
	got := make([]map[string]string, len(docs))
	for i, d := range docs {
		var cells []scenario.Cell
		tr.do("scenario.parse", -1, func() { cells, err = parseDoc(d.Body) })
		if err != nil {
			return err
		}
		got[i] = map[string]string{}
		for _, cell := range cells {
			sc := cell.Scenario
			tr.do("ma.automorphisms", -1, func() { ma.Automorphisms(sc.Adversary) })
			var key sweep.Key
			tr.do("sweep.key_for", -1, func() { key, err = sweep.KeyFor(sc.Adversary, sc.Options) })
			if err != nil {
				return err
			}
			cid := tr.open("sweep.cache", -1)
			tier.parent = cid
			out, _, err := cache.Do(ctx, key, func() (sweep.Outcome, error) {
				s, err := tracedSession(ctx, tr, cid, sc.Adversary, sc.Options, nil)
				sum.Interned += s.Interned
				sum.Full += s.Full
				sum.Extended += s.Extended
				sum.Views += s.Views
				sum.Components += s.Components
				sum.DecisiveViews += s.DecisiveViews
				return sweep.Outcome{Verdict: s.Verdict, SeparationHorizon: s.SeparationHorizon, Horizon: s.Horizon, Runs: s.Full}, err
			})
			tr.close(cid)
			if err != nil {
				return err
			}
			got[i][sc.Name] = out.Verdict.String()
		}
	}
	wall := time.Since(t0)

	for i, d := range docs {
		ok := b.expect(len(got[i]) == len(expected[i]), "%s: traced replay has %d cells, daemon %d", d.Name, len(got[i]), len(expected[i]))
		for name, v := range expected[i] {
			ok = b.expect(got[i][name] == v, "%s: cell %s traced verdict %q, daemon %q", d.Name, name, got[i][name], v) && ok
		}
		b.count(ok)
	}

	for k, v := range topoLayers(tr, sum) {
		m[k] = v
	}
	self := tr.selfTimes()
	m["scenario.parse_ms"] = ms(self["scenario.parse"])
	m["ma.fingerprint_ms"] = ms(self["sweep.key_for"])
	m["store.open_ms"] = ms(self["store.open"])
	m["store.get_ms"] = ms(self["store.get"])
	m["store.put_ms"] = ms(self["store.put"])
	m["check.analyzer_ms"] = ms(self["check.analyzer"])
	m["trace.wall_ms"] = ms(wall)
	b.layerMedians([]map[string]float64{m})
	b.metric("trace.overhead_ratio", median(traced)/median(plain), "ratio")
	b.info["samples"] = len(queue)
	return nil
}
