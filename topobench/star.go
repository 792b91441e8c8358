package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"topocon/internal/check"
	"topocon/internal/ckpt"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/scenario"
)

// The star workloads analyse scenarios/lossy-star-4.json, the corpus's
// largest session: one closed session at a time, Analyzer parallelism 1.
const (
	starScenario = "scenarios/lossy-star-4.json"
	// star-quotient: horizon 8 under the S₃ quotient.
	quotientHorizon  = 8
	quotientFullRuns = 1 << 20
	// star-durable: horizon 7 on the trivial group, out of core, with a
	// checkpoint every horizon and one interruption after horizon 5.
	durableHorizon   = 7
	durableInterrupt = 5
	durableHotBytes  = 256 << 10
	// setupReps is how many times the star set-up is repeated before each
	// session; setup_s is the median over the whole run, so its samples
	// span the same time window as the sessions'.
	setupReps = 25
)

// loadStar loads the star scenario with the workload's horizon and
// symmetry setting and builds an Analyzer over it (the set-up a star
// session pays before its first horizon).
func loadStar(root string, horizon int, noSymmetry bool) (*scenario.Scenario, check.Options, error) {
	sc, err := scenario.Load(filepath.Join(root, starScenario))
	if err != nil {
		return nil, check.Options{}, err
	}
	opts := sc.Options
	opts.MaxHorizon = horizon
	opts.NoSymmetry = noSymmetry
	if _, err := check.NewAnalyzer(sc.Adversary, check.WithOptions(opts), check.WithParallelism(1)); err != nil {
		return nil, check.Options{}, err
	}
	return sc, opts, nil
}

// starSetup times loadStar setupReps times, appending seconds to xs.
func starSetup(xs []float64, root string, horizon int, noSymmetry bool) ([]float64, error) {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, _, err := loadStar(root, horizon, noSymmetry); err != nil {
			return nil, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return xs, nil
}

// timedSession is one measured session.
type timedSession struct {
	wall, cpu time.Duration
}

// measure runs fn once with the heap settled first, timing wall and
// process CPU.
func measure(fn func() error) (timedSession, error) {
	runtime.GC()
	c0, t0 := selfCPU(), time.Now()
	err := fn()
	return timedSession{wall: time.Since(t0), cpu: selfCPU() - c0}, err
}

// reportSessions fills the end-to-end metrics of a star workload: one
// session is one job.
func reportSessions(b *bench, setup float64, sessions []timedSession) error {
	var walls, cpus, lat []float64
	var total time.Duration
	for _, s := range sessions {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		lat = append(lat, ms(s.wall))
		total += s.wall
	}
	rss, err := peakRSS("self")
	if err != nil {
		return err
	}
	b.metric("setup_s", setup, "s")
	b.metric("wall_s", median(walls), "s")
	b.metric("cpu_s", median(cpus), "s")
	b.metric("jobs_per_s", float64(len(sessions))/total.Seconds(), "1/s")
	b.metric("job_p50_ms", quantile(lat, 0.5), "ms")
	b.metric("job_p90_ms", quantile(lat, 0.9), "ms")
	b.metric("peak_rss_mb", rss, "MiB")
	b.info["samples"] = len(sessions)
	return nil
}

// runStarQuotient is the star-quotient workload.
func runStarQuotient(ctx context.Context, b *bench) error {
	sc, opts, err := loadStar(b.root, quotientHorizon, false)
	if err != nil {
		return err
	}
	// untraced runs one session and checks its output: verdict unknown,
	// one mixed component, 2^20 full runs at horizon 8.
	untraced := func() (check.Verdict, error) {
		var last check.HorizonReport
		a, err := check.NewAnalyzer(sc.Adversary, check.WithOptions(opts), check.WithParallelism(1),
			check.WithProgress(func(r check.HorizonReport) { last = r }))
		if err != nil {
			return 0, err
		}
		res, err := a.Check(ctx)
		if err != nil {
			return 0, err
		}
		b.count(b.expect(res.Verdict == check.VerdictUnknown && res.MixedComponents == 1 &&
			last.Horizon == quotientHorizon && last.MixedComponents == 1 && last.Runs == quotientFullRuns,
			"star-quotient: verdict %v, mixed %d, horizon %d, runs %d; want unknown, 1 mixed, horizon %d, %d runs",
			res.Verdict, last.MixedComponents, last.Horizon, last.Runs, quotientHorizon, quotientFullRuns))
		return res.Verdict, nil
	}
	if !b.trace {
		var sessions []timedSession
		var setups []float64
		for deadline := time.Now().Add(b.seconds); len(sessions) < 3 || time.Now().Before(deadline); {
			if setups, err = starSetup(setups, b.root, quotientHorizon, false); err != nil {
				return err
			}
			s, err := measure(func() error { _, err := untraced(); return err })
			if err != nil {
				return err
			}
			sessions = append(sessions, s)
		}
		return reportSessions(b, median(setups), sessions)
	}

	var plain, traced []float64
	var layers []map[string]float64
	for deadline := time.Now().Add(b.seconds); len(traced) < 2 || time.Now().Before(deadline); {
		var want check.Verdict
		s, err := measure(func() error { v, err := untraced(); want = v; return err })
		if err != nil {
			return err
		}
		plain = append(plain, s.wall.Seconds())

		tr := b.newTracer()
		var st sessionStats
		s, err = measure(func() error { st, err = tracedSession(ctx, tr, -1, sc.Adversary, opts, nil); return err })
		if err != nil {
			return err
		}
		traced = append(traced, s.wall.Seconds())
		b.count(b.expect(st.Verdict == want && st.Mixed == 1 && st.Full == quotientFullRuns,
			"star-quotient traced: verdict %v, mixed %d, %d full runs; untraced verdict %v", st.Verdict, st.Mixed, st.Full, want))
		m := topoLayers(tr, st)
		m["trace.wall_ms"] = ms(s.wall)
		layers = append(layers, m)
	}
	b.layerMedians(layers)
	b.metric("trace.overhead_ratio", median(traced)/median(plain), "ratio")
	b.info["samples"] = len(traced)
	return nil
}

// topoLayers turns a traced session's spans and counts into per-layer
// metrics.
func topoLayers(tr *tracer, st sessionStats) map[string]float64 {
	self := tr.selfTimes()
	m := map[string]float64{
		"topo.extend_ms":          ms(self["topo.extend"]),
		"topo.refine_ms":          ms(self["topo.refine"]),
		"topo.decompose_ms":       ms(self["topo.decompose"]),
		"topo.summary_ms":         ms(self["topo.summary"]),
		"topo.items_interned":     float64(st.Interned),
		"topo.items_full":         float64(st.Full),
		"topo.components":         float64(st.Components),
		"ptg.views_interned":      float64(st.Views),
		"baseline.pump_ms":        ms(self["baseline.pump"]),
		"baseline.bivalence_ms":   ms(self["baseline.bivalence"]),
		"check.decision_map_ms":   ms(self["check.decision_map"]),
		"check.decisive_views":    float64(st.DecisiveViews),
		"ma.automorphisms_ms":     ms(self["ma.automorphisms"]),
		"topo.extend_ns_per_item": 0,
	}
	if st.Extended > 0 {
		m["topo.extend_ns_per_item"] = float64(self["topo.extend"].Nanoseconds()) / float64(st.Extended)
	}
	var attributed time.Duration
	for _, d := range self {
		attributed += d
	}
	m["trace.attributed_ms"] = ms(attributed)
	return m
}

// durableSession is one star-durable session as the program runs it:
// ckpt.RunCheck from an empty checkpoint directory, cancelled after
// horizon durableInterrupt (checkpointed), then ckpt.RunCheck again in the
// same process, which resumes from the checkpoint. ok reports that the
// resume happened at the interruption horizon and re-extended nothing.
func durableSession(ctx context.Context, b *bench, adv ma.Adversary, opts check.Options, dir string) (res *check.Result, ok bool, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, false, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := ckpt.Config{Dir: dir, HotBytes: durableHotBytes, Every: 1, OnHorizon: func(r check.HorizonReport) {
		if r.Horizon == durableInterrupt {
			cancel()
		}
	}}
	_, first, err := ckpt.RunCheck(cctx, adv, cfg, opts, 1)
	if !errors.Is(err, context.Canceled) {
		return nil, false, fmt.Errorf("star-durable: interrupted session returned %v, want context.Canceled", err)
	}
	var seen []int
	cfg.OnHorizon = func(r check.HorizonReport) { seen = append(seen, r.Horizon) }
	res, info, err := ckpt.RunCheck(ctx, adv, cfg, opts, 1)
	if err != nil {
		return nil, false, err
	}
	var rest []int
	for h := durableInterrupt + 1; h <= durableHorizon; h++ {
		rest = append(rest, h)
	}
	return res, b.expect(first.Written == durableInterrupt && !first.Resumed &&
		info.Resumed && info.ResumedAt == durableInterrupt && slices.Equal(seen, rest),
		"star-durable: %d checkpoints before the interruption (want %d); resumed %v at %d (want %d); analysed %v after resume (want %v)",
		first.Written, durableInterrupt, info.Resumed, info.ResumedAt, durableInterrupt, seen, rest), nil
}

// runStarDurable is the star-durable workload.
func runStarDurable(ctx context.Context, b *bench) error {
	sc, opts, err := loadStar(b.root, durableHorizon, true)
	if err != nil {
		return err
	}
	sameAs := func(got, want *check.Result, what string) bool {
		return b.expect(got.Verdict == want.Verdict && got.Horizon == want.Horizon &&
			got.Components == want.Components && got.MixedComponents == want.MixedComponents,
			"star-durable %s: verdict %v at horizon %d with %d components (%d mixed); reference: %v at %d with %d (%d)",
			what, got.Verdict, got.Horizon, got.Components, got.MixedComponents,
			want.Verdict, want.Horizon, want.Components, want.MixedComponents)
	}
	dir := filepath.Join(b.work, "ckpt")

	if !b.trace {
		var sessions []timedSession
		var results []*check.Result
		var oks []bool
		var setups []float64
		for deadline := time.Now().Add(b.seconds); len(sessions) < 3 || time.Now().Before(deadline); {
			if setups, err = starSetup(setups, b.root, durableHorizon, true); err != nil {
				return err
			}
			var res *check.Result
			var ok bool
			s, err := measure(func() error {
				var err error
				res, ok, err = durableSession(ctx, b, sc.Adversary, opts, dir)
				return err
			})
			if err != nil {
				return err
			}
			sessions = append(sessions, s)
			results = append(results, res)
			oks = append(oks, ok)
		}
		if err := reportSessions(b, median(setups), sessions); err != nil {
			return err
		}
		// The reference: one uninterrupted, all-in-memory horizon-7 session.
		a, err := check.NewAnalyzer(sc.Adversary, check.WithOptions(opts), check.WithParallelism(1))
		if err != nil {
			return err
		}
		want, err := a.Check(ctx)
		if err != nil {
			return err
		}
		for i, res := range results {
			b.count(sameAs(res, want, "resumed session") && oks[i])
		}
		return nil
	}

	var plain, traced []float64
	var layers []map[string]float64
	for deadline := time.Now().Add(b.seconds); len(traced) < 2 || time.Now().Before(deadline); {
		var want *check.Result
		var ok bool
		s, err := measure(func() error {
			var err error
			want, ok, err = durableSession(ctx, b, sc.Adversary, opts, dir)
			return err
		})
		if err != nil {
			return err
		}
		plain = append(plain, s.wall.Seconds())

		tr := b.newTracer()
		var got *check.Result
		var traffic durableTraffic
		s, err = measure(func() error {
			var err error
			got, traffic, err = tracedDurable(ctx, tr, sc.Adversary, opts, dir)
			return err
		})
		if err != nil {
			return err
		}
		traced = append(traced, s.wall.Seconds())
		ok = sameAs(got, want, "traced session") && ok
		m := durableLayers(tr)
		m["ckpt.bytes"] = float64(traffic.bytes)
		m["pager.pages_spilled"] = float64(traffic.pager.PagesSpilled)
		m["pager.pages_faulted"] = float64(traffic.pager.PagesFaulted)
		m["pager.peak_hot_bytes"] = float64(traffic.pager.PeakHotBytes)
		m["trace.wall_ms"] = ms(s.wall)

		// The uninterrupted oracle session, driven through topo's public
		// functions under the same pager budget, splits the Analyzer's
		// steps into extension and refinement (the topo metrics below).
		oracle := filepath.Join(b.work, "oracle")
		otr := b.newTracer()
		pg, err := ckpt.Fresh(oracle, durableHotBytes)
		if err != nil {
			return err
		}
		st, err := tracedSession(ctx, otr, -1, sc.Adversary, opts, pg)
		if err != nil {
			return err
		}
		b.count(b.expect(st.Verdict == got.Verdict && st.Components == got.Components && st.Mixed == got.MixedComponents,
			"star-durable oracle: verdict %v with %d components (%d mixed); session %v with %d (%d)",
			st.Verdict, st.Components, st.Mixed, got.Verdict, got.Components, got.MixedComponents) && ok)
		for k, v := range topoLayers(otr, st) {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
		if err := ckpt.Remove(oracle); err != nil {
			return err
		}
		layers = append(layers, m)
	}
	b.layerMedians(layers)
	b.metric("trace.overhead_ratio", median(traced)/median(plain), "ratio")
	b.info["samples"] = len(traced)
	return nil
}

// tracedDurable replays durableSession through the public functions
// ckpt.RunCheck composes, with a span around each: ckpt.Load (no
// checkpoint yet), ckpt.Fresh, then per horizon check.Analyzer.Step and
// ckpt.Save; at the interruption the session is dropped and ckpt.Load
// resumes it; after the last horizon check.Analyzer.Check finalizes
// (certificate searches) and ckpt.Remove retires the directory.
// durableTraffic is the out-of-core traffic of a traced durable session:
// the two pagers' spills and faults summed (peak: the larger), and the
// checkpoint's size on disk after the last save.
type durableTraffic struct {
	pager pager.Stats
	bytes int64
}

func tracedDurable(ctx context.Context, tr *tracer, adv ma.Adversary, opts check.Options, dir string) (*check.Result, durableTraffic, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, durableTraffic{}, err
	}
	var err error
	tr.do("ckpt.load", -1, func() { _, err = ckpt.Load(dir, adv, durableHotBytes, check.WithParallelism(1)) })
	if !errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil, durableTraffic{}, fmt.Errorf("star-durable traced: load of an empty directory: %v", err)
	}
	var a *check.Analyzer
	tr.do("ckpt.fresh", -1, func() {
		pg, ferr := ckpt.Fresh(dir, durableHotBytes)
		if ferr != nil {
			err = ferr
			return
		}
		a, err = check.NewAnalyzer(adv, check.WithOptions(opts), check.WithParallelism(1), check.WithPager(pg))
	})
	if err != nil {
		return nil, durableTraffic{}, err
	}
	step := func(until int) error {
		for a.Horizon() < until {
			tr.do("check.step", -1, func() { _, err = a.Step(ctx) })
			if err != nil {
				return err
			}
			tr.do("ckpt.save", -1, func() { err = ckpt.Save(dir, a) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := step(durableInterrupt); err != nil {
		return nil, durableTraffic{}, err
	}
	traffic := durableTraffic{pager: a.Pager().Stats()}
	a = nil
	tr.do("ckpt.load", -1, func() { a, err = ckpt.Load(dir, adv, durableHotBytes, check.WithParallelism(1)) })
	if err != nil {
		return nil, durableTraffic{}, err
	}
	if a.Horizon() != durableInterrupt {
		return nil, durableTraffic{}, fmt.Errorf("star-durable traced: resumed at horizon %d, want %d", a.Horizon(), durableInterrupt)
	}
	if err := step(durableHorizon); err != nil {
		return nil, durableTraffic{}, err
	}
	var res *check.Result
	tr.do("check.finalize", -1, func() { res, err = a.Check(ctx) })
	if err != nil {
		return nil, durableTraffic{}, err
	}
	traffic.bytes = dirBytes(dir)
	ps := a.Pager().Stats()
	traffic.pager.PagesSpilled += ps.PagesSpilled
	traffic.pager.PagesFaulted += ps.PagesFaulted
	traffic.pager.PeakHotBytes = max(traffic.pager.PeakHotBytes, ps.PeakHotBytes)
	tr.do("ckpt.remove", -1, func() { err = ckpt.Remove(dir) })
	return res, traffic, err
}

// durableLayers turns the traced durable session's spans into metrics.
func durableLayers(tr *tracer) map[string]float64 {
	self := tr.selfTimes()
	var attributed time.Duration
	for _, d := range self {
		attributed += d
	}
	return map[string]float64{
		"check.step_ms":       ms(self["check.step"]),
		"check.finalize_ms":   ms(self["check.finalize"]),
		"ckpt.save_ms":        ms(self["ckpt.save"]),
		"ckpt.saves":          float64(tr.count("ckpt.save")),
		"ckpt.load_ms":        ms(self["ckpt.load"]),
		"trace.attributed_ms": ms(attributed),
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
