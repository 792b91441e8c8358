package check

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

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

// countdownCtx reports cancellation from its (n+1)-th Err call on, so a
// test can cancel a Step at a chosen point of its work.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// errCalls returns how many times f calls Err on the context it is given.
func errCalls(f func(ctx context.Context)) int {
	const budget = 1 << 30
	c := &countdownCtx{Context: context.Background(), n: budget}
	f(c)
	return budget - c.n
}

// TestAnalyzerCancelledDecomposition cancels a Step inside its
// decomposition, after the extension has finished. Step drops the head's
// decomposition before it builds the next one, so Decomposition() must
// then still describe Horizon()'s space, and the resumed Check must reach
// the uninterrupted session's result.
func TestAnalyzerCancelledDecomposition(t *testing.T) {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 2)
	for _, adv := range []ma.Adversary{ma.LossyLink3(), stable} {
		ctx := context.Background()
		a, err := NewAnalyzer(adv, WithMaxHorizon(5))
		if err != nil {
			t.Fatal(err)
		}
		for a.Horizon() < 2 {
			if _, err := a.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		// Step checks the context once itself, then Extend's checks, then
		// DecomposeCtx's: fail the first of DecomposeCtx's.
		var next *topo.Space
		extendCalls := errCalls(func(c context.Context) {
			if next, err = a.cur.Extend(c, 3); err != nil {
				t.Fatal(err)
			}
		})
		if n := errCalls(func(c context.Context) { topo.DecomposeCtx(c, next) }); n == 0 {
			t.Fatalf("%s: DecomposeCtx never checks its context", adv.Name())
		}
		if _, err := a.Step(&countdownCtx{Context: ctx, n: 1 + extendCalls}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Step cancelled in its decomposition: %v, want context.Canceled", adv.Name(), err)
		}
		d := a.Decomposition()
		if a.Horizon() != 2 || d == nil || d.Space != a.SpaceAt(2) {
			t.Fatalf("%s: after the cancelled Step, horizon %d, decomposition %v of another space", adv.Name(), a.Horizon(), d)
		}
		if d.FullComponents() != a.Result().Components || d.FullMixedComponents() != a.Result().MixedComponents {
			t.Fatalf("%s: decomposition has %d components (%d mixed), horizon 2 reported %d (%d)", adv.Name(),
				d.FullComponents(), d.FullMixedComponents(), a.Result().Components, a.Result().MixedComponents)
		}
		resumed, err := a.Check(ctx)
		if err != nil {
			t.Fatalf("%s: resume: %v", adv.Name(), err)
		}
		b, err := NewAnalyzer(adv, WithMaxHorizon(5))
		if err != nil {
			t.Fatal(err)
		}
		full, err := b.Check(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Verdict != full.Verdict || resumed.Horizon != full.Horizon ||
			resumed.Components != full.Components || resumed.MixedComponents != full.MixedComponents ||
			resumed.SeparationHorizon != full.SeparationHorizon || resumed.BroadcastHorizon != full.BroadcastHorizon {
			t.Errorf("%s: resumed %+v, uninterrupted %+v", adv.Name(), *resumed, *full)
		}
		if d := a.Decomposition(); d == nil || d.Space != a.SpaceAt(a.Horizon()) {
			t.Errorf("%s: the resumed session's decomposition is not its head's", adv.Name())
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

// TestAnalyzerSharedInterner asserts every space SpaceAt serves and the
// compiled decision map share one interner, so views are comparable across
// horizons.
func TestAnalyzerSharedInterner(t *testing.T) {
	a, err := NewAnalyzer(ma.LossyLink2(), WithMaxHorizon(3))
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
	for horizon := 0; horizon <= a.Horizon(); horizon++ {
		s := a.SpaceAt(horizon)
		if s == nil {
			t.Fatalf("SpaceAt(%d) = nil", horizon)
		}
		if s.Interner != in {
			t.Errorf("horizon %d: interner differs from decision map's", horizon)
		}
	}
	if a.DecisionMap() != res.Map {
		t.Error("DecisionMap() disagrees with Result")
	}
}

// TestAnalyzerRetention pins the session shape: a deep session keeps two
// spaces reachable, the deepest and the separation horizon's, and SpaceAt
// returns those two as they are and replays every other horizon, with or
// without a pager, to a space the size of a from-scratch build's.
func TestAnalyzerRetention(t *testing.T) {
	const maxHorizon = 8
	// runDeep steps a LossyLink2 session to maxHorizon, calling each after
	// every Step.
	runDeep := func(t *testing.T, each func(*Analyzer), opts ...AnalyzerOption) *Analyzer {
		t.Helper()
		a, err := NewAnalyzer(ma.LossyLink2(), append([]AnalyzerOption{WithMaxHorizon(maxHorizon)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := a.Step(context.Background()); err != nil {
				if errors.Is(err, ErrHorizonExhausted) {
					break
				}
				t.Fatal(err)
			}
			each(a)
		}
		if a.Horizon() != maxHorizon {
			t.Fatalf("deep session stopped at horizon %d", a.Horizon())
		}
		if a.Result().SeparationHorizon < 0 {
			t.Fatal("LossyLink2 must separate")
		}
		return a
	}
	// replaysEveryHorizon checks SpaceAt over the whole session.
	replaysEveryHorizon := func(t *testing.T, a *Analyzer) {
		t.Helper()
		for horizon := 0; horizon <= maxHorizon; horizon++ {
			s := a.SpaceAt(horizon)
			if s == nil {
				t.Fatalf("SpaceAt(%d) = nil", horizon)
			}
			if s.Horizon != horizon {
				t.Fatalf("SpaceAt(%d) served horizon %d", horizon, s.Horizon)
			}
			want, err := topo.BuildCtx(context.Background(), ma.LossyLink2(), 2, horizon, topo.Config{})
			if err != nil {
				t.Fatal(err)
			}
			// The session quotients by the lossy-link swap symmetry, so the
			// replayed space interns representatives; its orbit-weighted
			// size must match the full from-scratch build.
			if s.FullLen() != want.Len() {
				t.Errorf("SpaceAt(%d): %d full-space runs, from-scratch build has %d", horizon, s.FullLen(), want.Len())
			}
		}
		if sep := a.Result().SeparationHorizon; a.SpaceAt(sep) != a.Result().Space {
			t.Errorf("SpaceAt(%d) is not the separation space Result.Space", sep)
		}
		if a.SpaceAt(maxHorizon+1) != nil || a.SpaceAt(-1) != nil {
			t.Error("SpaceAt outside 0..Horizon served a space")
		}
	}

	t.Run("default", func(t *testing.T) {
		var spaces []weak.Pointer[topo.Space] // spaces[t-1]: the horizon-t head
		a := runDeep(t, func(a *Analyzer) { spaces = append(spaces, weak.Make(a.SpaceAt(a.Horizon()))) })
		runtime.GC()
		sep := a.Result().SeparationHorizon
		for i, w := range spaces {
			horizon := i + 1
			if alive, want := w.Value() != nil, horizon == sep || horizon == maxHorizon; alive != want {
				t.Errorf("horizon-%d space reachable=%v after a collection, want %v", horizon, alive, want)
			}
		}
		if a.SpaceAt(maxHorizon) != spaces[maxHorizon-1].Value() || a.SpaceAt(sep) != spaces[sep-1].Value() {
			t.Error("SpaceAt does not return the session's own head and separation spaces")
		}
	})
	t.Run("no-pager", func(t *testing.T) {
		replaysEveryHorizon(t, runDeep(t, func(*Analyzer) {}))
	})
	// Under a 1-byte budget every interior round's views are evicted, so
	// reading a replayed space's views faults its round back from its page.
	t.Run("pager-rehydrates", func(t *testing.T) {
		pg, err := pager.New(pager.Config{Dir: t.TempDir(), HotBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := runDeep(t, func(*Analyzer) {}, WithPager(pg))
		replaysEveryHorizon(t, a)
		for horizon := 1; horizon < maxHorizon; horizon++ {
			a.SpaceAt(horizon).ViewAt(0, 0)
		}
		if st := pg.Stats(); st.PagesFaulted == 0 {
			t.Errorf("no page faulted: %+v", st)
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

// TestPumpSearchDomain3 runs the compact route's certificate searches over
// three input values on a four-process oblivious adversary whose anchor
// search, as an exhaustive simple-path search, ran for minutes: whether an
// anchor exists is reachability, which a search that never unmarks a
// vector answers at once.
func TestPumpSearchDomain3(t *testing.T) {
	adv := advgen.SymmetricOblivious(rand.New(rand.NewSource(-8)), 4)
	a, err := NewAnalyzer(adv, WithOptions(Options{InputDomain: 3, MaxHorizon: 1}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := a.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Check took %v, want well under a second", elapsed)
	}
	t.Logf("%s: %v after %v", adv.Name(), res.Verdict, time.Since(start))
}
