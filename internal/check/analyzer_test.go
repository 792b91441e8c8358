package check

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/topo"
)

// TestAnalyzerMatchesFromScratch replays the pre-session per-horizon
// rebuild loop and asserts the incremental Analyzer reaches the same
// separation/broadcast horizons and decomposition statistics on every
// compact seed adversary.
func TestAnalyzerMatchesFromScratch(t *testing.T) {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	advs := []ma.Adversary{
		ma.LossyLink2(),
		ma.LossyLink3(),
		ma.LossBounded(2, 1),
		ma.MustDeadlineStable(stable, 2),
	}
	const maxHorizon = 5
	for _, adv := range advs {
		// Legacy path: fresh space per horizon, loop until separation and
		// broadcastability are both witnessed.
		sepWant, bcastWant := -1, -1
		var lastComps, lastMixed int
		for horizon := 1; horizon <= maxHorizon; horizon++ {
			s, err := topo.BuildCtx(context.Background(), adv, 2, horizon, topo.Config{})
			if err != nil {
				t.Fatal(err)
			}
			d, err := topo.DecomposeCtx(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			lastComps = len(d.Comps)
			lastMixed = len(d.MixedComponents())
			if sepWant < 0 && lastMixed == 0 {
				sepWant = horizon
			}
			if bcastWant < 0 && d.ValentComponentsBroadcastable() {
				bcastWant = horizon
			}
			if sepWant >= 0 && bcastWant >= 0 {
				break
			}
		}
		a, err := NewAnalyzer(adv, WithMaxHorizon(maxHorizon))
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Check(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", adv.Name(), err)
		}
		if res.SeparationHorizon != sepWant || res.BroadcastHorizon != bcastWant {
			t.Errorf("%s: separation/broadcast = %d/%d, from-scratch found %d/%d",
				adv.Name(), res.SeparationHorizon, res.BroadcastHorizon, sepWant, bcastWant)
		}
		if res.Components != lastComps || res.MixedComponents != lastMixed {
			t.Errorf("%s: components/mixed = %d/%d, from-scratch found %d/%d",
				adv.Name(), res.Components, res.MixedComponents, lastComps, lastMixed)
		}
	}
}

// TestAnalyzerParallelMatchesSequential runs three sessions at once, each
// on its own goroutine as topoconsvc's workers and a sweep's cells run
// them, and asserts that each has the verdict and the per-horizon runs,
// full-space component and mixed counts and interned views of a session
// run alone. The sessions share the engine's pooled scratch and one
// adversary value, which the Adversary contract allows; run it under
// -race. The corpus star (quotiented and not) and generated
// symmetric adversaries run the in-mask memo and the successor table of
// frontier extension.
func TestAnalyzerParallelMatchesSequential(t *testing.T) {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 2)
	type tc struct {
		adv  ma.Adversary
		opts []AnalyzerOption
	}
	// Union memoizes its product states in a locked cache, which the
	// sessions share.
	free, commit := []graph.Graph{graph.Left, graph.Right, graph.Both}, []graph.Graph{graph.Left, graph.Right}
	union := ma.MustUnion("", ma.MustCommittedSuffix("", free, commit, 2), ma.MustCommittedSuffix("", free, commit, 3))
	cases := []tc{{adv: ma.LossyLink2()}, {adv: ma.LossyLink3()}, {adv: stable}, {adv: union},
		{adv: advgen.LossyStar4()}, {adv: advgen.LossyStar4(), opts: []AnalyzerOption{WithNoSymmetry()}}}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 3; i++ {
		cases = append(cases, tc{adv: advgen.SymmetricOblivious(rng, 3+i%2), opts: []AnalyzerOption{WithMaxHorizon(3)}})
	}
	type outcome struct {
		res  *Result
		reps []HorizonReport
		err  error
	}
	session := func(c tc) outcome {
		var out outcome
		opts := append([]AnalyzerOption{WithMaxHorizon(5),
			WithProgress(func(r HorizonReport) { out.reps = append(out.reps, r) })}, c.opts...)
		a, err := NewAnalyzer(c.adv, opts...)
		if err == nil {
			out.res, err = a.Check(context.Background())
		}
		out.err = err
		return out
	}
	for ci, c := range cases {
		seq := session(c)
		if seq.err != nil {
			t.Fatal(seq.err)
		}
		var par [3]outcome
		var wg sync.WaitGroup
		for w := range par {
			wg.Add(1)
			go func() {
				defer wg.Done()
				par[w] = session(c)
			}()
		}
		wg.Wait()
		for w, p := range par {
			if p.err != nil {
				t.Fatalf("case %d %s, session %d: %v", ci, c.adv.Name(), w, p.err)
			}
			if seq.res.Verdict != p.res.Verdict || seq.res.SeparationHorizon != p.res.SeparationHorizon ||
				seq.res.Broadcaster != p.res.Broadcaster {
				t.Errorf("case %d %s, session %d: alone %v/%d/%d vs in parallel %v/%d/%d", ci, c.adv.Name(), w,
					seq.res.Verdict, seq.res.SeparationHorizon, seq.res.Broadcaster,
					p.res.Verdict, p.res.SeparationHorizon, p.res.Broadcaster)
			}
			if len(seq.reps) != len(p.reps) {
				t.Fatalf("case %d %s, session %d: %d horizons vs %d", ci, c.adv.Name(), w, len(seq.reps), len(p.reps))
			}
			for h, r := range seq.reps {
				if q := p.reps[h]; r.Components != q.Components || r.MixedComponents != q.MixedComponents ||
					r.Runs != q.Runs || r.InternedViews != q.InternedViews {
					t.Errorf("case %d %s, session %d, horizon %d: runs/components/mixed/views %d/%d/%d/%d vs in parallel %d/%d/%d/%d",
						ci, c.adv.Name(), w, r.Horizon, r.Runs, r.Components, r.MixedComponents, r.InternedViews,
						q.Runs, q.Components, q.MixedComponents, q.InternedViews)
				}
			}
		}
	}
}

// TestAnalyzerStep drives a session one horizon at a time and checks the
// exhaustion sentinel.
func TestAnalyzerStep(t *testing.T) {
	a, err := NewAnalyzer(ma.LossyLink3(), WithMaxHorizon(3))
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 3; want++ {
		rep, err := a.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Horizon != want {
			t.Fatalf("step %d: horizon %d", want, rep.Horizon)
		}
		if wantRuns := 4 * pow(3, want); rep.Runs != wantRuns {
			t.Errorf("horizon %d: %d runs, want %d", want, rep.Runs, wantRuns)
		}
		if a.Horizon() != want {
			t.Errorf("Horizon() = %d, want %d", a.Horizon(), want)
		}
		if s := a.SpaceAt(want); s == nil || s.Horizon != want {
			t.Errorf("SpaceAt(%d) = %v", want, s)
		}
	}
	if _, err := a.Step(context.Background()); !errors.Is(err, ErrHorizonExhausted) {
		t.Errorf("step past MaxHorizon: err = %v, want ErrHorizonExhausted", err)
	}
	// Check still finalizes from the stepped state.
	res, err := a.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictImpossible {
		t.Errorf("verdict = %v, want impossible", res.Verdict)
	}
}

// TestAnalyzerProgress asserts the WithProgress callback sees every horizon
// in order with consistent statistics.
func TestAnalyzerProgress(t *testing.T) {
	var reports []HorizonReport
	a, err := NewAnalyzer(ma.LossyLink3(),
		WithMaxHorizon(4),
		WithProgress(func(r HorizonReport) { reports = append(reports, r) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d reports, want 4", len(reports))
	}
	for i, r := range reports {
		if r.Horizon != i+1 {
			t.Errorf("report %d: horizon %d", i, r.Horizon)
		}
		if r.MixedComponents == 0 {
			t.Errorf("horizon %d: lossy link should stay mixed", r.Horizon)
		}
	}
}

// TestAnalyzerCancellation checks that both routes stop on a cancelled
// context and that the session resumes afterwards.
func TestAnalyzerCancellation(t *testing.T) {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 2)
	for _, adv := range []ma.Adversary{ma.LossyLink3(), stable} {
		a, err := NewAnalyzer(adv, WithMaxHorizon(5))
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := a.Check(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Check on cancelled ctx: %v, want context.Canceled", adv.Name(), err)
		}
		// Cancel mid-run: stop after the second horizon completes.
		b, err := NewAnalyzer(adv, WithMaxHorizon(5))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancelMid := context.WithCancel(context.Background())
		steps := 0
		b2, err := NewAnalyzer(adv, WithMaxHorizon(5), WithProgress(func(HorizonReport) {
			steps++
			if steps == 2 {
				cancelMid()
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b2.Check(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-run cancel: %v, want context.Canceled", adv.Name(), err)
		}
		if b2.Horizon() != 2 {
			t.Errorf("%s: horizon after mid-run cancel = %d, want 2", adv.Name(), b2.Horizon())
		}
		// The cancelled session resumes with a fresh context and agrees
		// with an uninterrupted one.
		resumed, err := b2.Check(context.Background())
		if err != nil {
			t.Fatalf("%s: resume: %v", adv.Name(), err)
		}
		full, err := b.Check(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Verdict != full.Verdict || resumed.Horizon != full.Horizon {
			t.Errorf("%s: resumed %v@%d vs uninterrupted %v@%d", adv.Name(),
				resumed.Verdict, resumed.Horizon, full.Verdict, full.Horizon)
		}
	}
}

// TestAnalyzerRejectsNegativeOptions is the Options validation contract:
// explicitly negative budgets error instead of being silently analysed.
func TestAnalyzerRejectsNegativeOptions(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"negative horizon", Options{MaxHorizon: -1}},
		{"negative domain", Options{InputDomain: -2}},
		{"negative max runs", Options{MaxRuns: -1}},
		{"negative latency slack", Options{LatencySlack: -3}},
	}
	for _, c := range cases {
		if _, err := NewAnalyzer(ma.LossyLink2(), WithOptions(c.opts)); err == nil {
			t.Errorf("NewAnalyzer with %s: want error", c.name)
		}
		if _, err := Consensus(ma.LossyLink2(), c.opts); err == nil {
			t.Errorf("Consensus with %s: want error", c.name)
		}
	}
	// CertChainLen stays sign-significant: negative means "disable".
	if _, err := NewAnalyzer(ma.LossyLink2(), WithCertChainLen(-1)); err != nil {
		t.Errorf("negative CertChainLen must stay legal: %v", err)
	}
}

// TestAnalyzerSharedInterner asserts every retained space and the compiled
// decision map share one interner, so views are comparable across horizons.
func TestAnalyzerSharedInterner(t *testing.T) {
	a, err := NewAnalyzer(ma.LossyLink2(), WithMaxHorizon(3), WithRetainSpaces(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictSolvable || res.Map == nil {
		t.Fatalf("verdict %v, map %v", res.Verdict, res.Map)
	}
	in := res.Map.Interner()
	// retain = 0 keeps every horizon alive.
	for horizon := 0; horizon <= a.Horizon(); horizon++ {
		s := a.SpaceAt(horizon)
		if s == nil {
			t.Fatalf("SpaceAt(%d) = nil under retain-all", horizon)
		}
		if s.Interner != in {
			t.Errorf("horizon %d: interner differs from decision map's", horizon)
		}
	}
	if a.DecisionMap() != res.Map {
		t.Error("DecisionMap() disagrees with Result")
	}
}

// TestAnalyzerRetention pins the space-retention contract: a deep session
// under the default policy holds at most two spaces alive (the deepest and
// the separation horizon's), SpaceAt serves exactly those, WithRetainSpaces
// widens or disables the window, and negative retention is rejected.
func TestAnalyzerRetention(t *testing.T) {
	const maxHorizon = 8
	runDeep := func(t *testing.T, opts ...AnalyzerOption) *Analyzer {
		t.Helper()
		a, err := NewAnalyzer(ma.LossyLink2(), append([]AnalyzerOption{WithMaxHorizon(maxHorizon)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		// Check stops at the separation horizon; keep stepping to depth.
		if _, err := a.Check(context.Background()); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := a.Step(context.Background()); err != nil {
				if errors.Is(err, ErrHorizonExhausted) {
					break
				}
				t.Fatal(err)
			}
		}
		if a.Horizon() != maxHorizon {
			t.Fatalf("deep session stopped at horizon %d", a.Horizon())
		}
		return a
	}

	t.Run("default", func(t *testing.T) {
		a := runDeep(t)
		retained := a.RetainedHorizons()
		if len(retained) > 2 {
			t.Fatalf("default retention holds %d spaces (%v), want at most 2", len(retained), retained)
		}
		sep := a.Result().SeparationHorizon
		if sep < 0 {
			t.Fatalf("LossyLink2 must separate")
		}
		if a.SpaceAt(sep) == nil {
			t.Errorf("separation-horizon space (t=%d) evicted", sep)
		}
		if a.SpaceAt(maxHorizon) == nil {
			t.Error("deepest space evicted")
		}
		for horizon := 0; horizon < maxHorizon; horizon++ {
			if horizon != sep && a.SpaceAt(horizon) != nil {
				t.Errorf("SpaceAt(%d) alive, want evicted", horizon)
			}
		}
		// The retained reference space still backs the decision map.
		if a.Result().Space != a.SpaceAt(sep) {
			t.Error("Result.Space disagrees with SpaceAt(separation)")
		}
	})
	t.Run("retain-all", func(t *testing.T) {
		a := runDeep(t, WithRetainSpaces(0))
		if got := len(a.RetainedHorizons()); got != maxHorizon+1 {
			t.Errorf("retain-all holds %d spaces, want %d", got, maxHorizon+1)
		}
	})
	t.Run("retain-3", func(t *testing.T) {
		a := runDeep(t, WithRetainSpaces(3))
		want := map[int]bool{maxHorizon: true, maxHorizon - 1: true, maxHorizon - 2: true,
			a.Result().SeparationHorizon: true}
		for horizon := 0; horizon <= maxHorizon; horizon++ {
			if alive := a.SpaceAt(horizon) != nil; alive != want[horizon] {
				t.Errorf("SpaceAt(%d) alive=%v, want %v", horizon, alive, want[horizon])
			}
		}
	})
	t.Run("negative", func(t *testing.T) {
		if _, err := NewAnalyzer(ma.LossyLink2(), WithRetainSpaces(-1)); err == nil {
			t.Error("negative retention: want error")
		}
	})
	// With a pager attached, SpaceAt rehydrates evicted horizons from the
	// spilled frontier pages instead of returning nil; the retained set
	// itself stays as small as before.
	t.Run("pager-rehydrates", func(t *testing.T) {
		pg, err := pager.New(pager.Config{Dir: t.TempDir(), HotBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := runDeep(t, WithPager(pg))
		if retained := a.RetainedHorizons(); len(retained) > 2 {
			t.Fatalf("pager session retains %d spaces (%v), want at most 2", len(retained), retained)
		}
		for horizon := 0; horizon <= maxHorizon; horizon++ {
			s := a.SpaceAt(horizon)
			if s == nil {
				t.Fatalf("SpaceAt(%d) = nil with pager attached", horizon)
			}
			if s.Horizon != horizon {
				t.Fatalf("SpaceAt(%d) rehydrated horizon %d", horizon, s.Horizon)
			}
			want, err := topo.BuildCtx(context.Background(), ma.LossyLink2(), 2, horizon, topo.Config{})
			if err != nil {
				t.Fatal(err)
			}
			// The session quotients by the lossy-link swap symmetry, so the
			// rehydrated space interns representatives; its orbit-weighted
			// size must match the full from-scratch build.
			if s.FullLen() != want.Len() {
				t.Errorf("SpaceAt(%d): %d full-space runs, from-scratch build has %d", horizon, s.FullLen(), want.Len())
			}
		}
		if a.SpaceAt(maxHorizon+1) != nil {
			t.Error("SpaceAt beyond the analysed horizon served a space")
		}
	})
}

// TestLatencySlackExceedsHorizon is the regression for the silent
// zero-witness outcome: with LatencySlack > MaxHorizon every discharged run
// is rejected (DoneAt > t - slack holds even for DoneAt = 0) and the
// non-compact route used to report a bare VerdictUnknown with no hint.
func TestLatencySlackExceedsHorizon(t *testing.T) {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	const maxHorizon = 3
	// Sanity: with the default slack the adversary discharges and solves.
	base, err := Consensus(stable, Options{MaxHorizon: maxHorizon})
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != VerdictSolvable {
		t.Fatalf("baseline verdict %v, want solvable", base.Verdict)
	}
	a, err := NewAnalyzer(stable, WithMaxHorizon(maxHorizon), WithLatencySlack(maxHorizon+1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictUnknown {
		t.Fatalf("verdict %v, want unknown", res.Verdict)
	}
	if len(res.Notes) == 0 {
		t.Fatal("zero-witness outcome recorded no note")
	}
	if !strings.Contains(res.Notes[0], "latency slack") || !strings.Contains(res.Notes[0], "exceeds") {
		t.Errorf("note %q does not name the slack misconfiguration", res.Notes[0])
	}
	if !strings.Contains(res.Summary(), res.Notes[0]) {
		t.Error("Summary does not surface the note")
	}
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}
