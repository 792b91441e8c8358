package topo

import (
	"context"
	"sync"
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// seedAdversaries returns one adversary per family shipped with the seed:
// the two lossy links, a loss-bounded Santoro-Widmayer instance, the
// non-compact eventually-stable family and its deadline compactification.
func seedAdversaries(t *testing.T) []ma.Adversary {
	t.Helper()
	stable := ma.MustEventuallyStable("stable-w1",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	return []ma.Adversary{
		ma.LossyLink2(),
		ma.LossyLink3(),
		ma.LossBounded(3, 1),
		stable,
		ma.MustDeadlineStable(stable, 2),
	}
}

// TestExtendMatchesBuild is the incremental-extension invariant: for every
// seed adversary, a horizon-t BuildCtx and a horizon-1 BuildCtx extended to t
// yield identical item sequences (runs, obligations, valences, heard-sets)
// and identical DecomposeCtx results at every horizon.
func TestExtendMatchesBuild(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		maxT := 4
		if adv.N() > 2 {
			maxT = 3 // the n=3 space grows too fast for a unit test
		}
		inc, err := BuildCtx(context.Background(), adv, 2, 1, Config{})
		if err != nil {
			t.Fatalf("%s: Build horizon 1: %v", adv.Name(), err)
		}
		for horizon := 2; horizon <= maxT; horizon++ {
			inc, err = inc.Extend(ctx, horizon)
			if err != nil {
				t.Fatalf("%s: Extend to %d: %v", adv.Name(), horizon, err)
			}
			scratch, err := BuildCtx(context.Background(), adv, 2, horizon, Config{})
			if err != nil {
				t.Fatalf("%s: Build horizon %d: %v", adv.Name(), horizon, err)
			}
			assertSpacesEqual(t, adv.Name(), scratch, inc)
			assertViewsMatchComputed(t, adv.Name(), scratch)
			assertDecompositionsEqual(t, adv.Name(), decompose(t, scratch), decompose(t, inc))
		}
	}
}

// TestExtendParallelMatchesSequential asserts that the worker-pool frontier
// expansion produces the same space, and so the same partition, as the
// sequential path (parallel Refine is pinned by TestRefineMatchesDecompose).
func TestExtendParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		seq, err := BuildCtx(context.Background(), adv, 2, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildCtx(ctx, adv, 2, 1, Config{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		horizon := 4
		if adv.N() > 2 {
			horizon = 3
		}
		seq, err = seq.Extend(ctx, horizon)
		if err != nil {
			t.Fatal(err)
		}
		par, err = par.Extend(ctx, horizon)
		if err != nil {
			t.Fatal(err)
		}
		assertSpacesEqual(t, adv.Name(), seq, par)
		dseq := decompose(t, seq)
		dpar, err := DecomposeCtx(ctx, par)
		if err != nil {
			t.Fatal(err)
		}
		assertDecompositionsEqual(t, adv.Name(), dseq, dpar)
	}
}

// TestExtendParallelUnionAdversary exercises concurrent Choices/Step/Done
// on a memoizing adversary (Union interns state vectors in a cache): under
// -race this pins the Adversary concurrency contract the worker pool
// relies on.
func TestExtendParallelUnionAdversary(t *testing.T) {
	free := []graph.Graph{graph.Left, graph.Right, graph.Both}
	commit := []graph.Graph{graph.Left, graph.Right}
	adv := ma.MustUnion("",
		ma.MustCommittedSuffix("", free, commit, 2),
		ma.MustCommittedSuffix("", free, commit, 3))
	ctx := context.Background()
	par, err := BuildCtx(ctx, adv, 2, 1, Config{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	par, err = par.Extend(ctx, 5) // >128 items per round, engages the pool
	if err != nil {
		t.Fatal(err)
	}
	seq, err := BuildCtx(context.Background(), adv, 2, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertSpacesEqual(t, adv.Name(), seq, par)
}

// TestFindConcurrent pins the lazily-built run index against concurrent
// first use.
func TestFindConcurrent(t *testing.T) {
	s, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < s.Len(); i++ {
				if got := s.Find(s.RunOf(i)); got != i {
					t.Errorf("Find(items[%d].Run) = %d", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtendCancellation asserts that a cancelled context aborts Extend and
// DecomposeCtx with ctx.Err() instead of returning a partial space.
func TestExtendCancellation(t *testing.T) {
	s, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Extend(ctx, 4); err != context.Canceled {
		t.Errorf("Extend with cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := DecomposeCtx(ctx, s); err != context.Canceled {
		t.Errorf("DecomposeCtx with cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := BuildCtx(ctx, ma.LossyLink3(), 2, 3, Config{}); err != context.Canceled {
		t.Errorf("BuildCtx with cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestExtendRespectsMaxRuns asserts the inherited size cap fires during
// extension exactly as it does during a from-scratch build.
func TestExtendRespectsMaxRuns(t *testing.T) {
	s, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 1, Config{MaxRuns: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Horizon 2 has 4·3² = 36 ≤ 40 runs, horizon 3 has 108 > 40.
	s, err = s.Extend(context.Background(), 2)
	if err != nil {
		t.Fatalf("horizon 2 within cap: %v", err)
	}
	if _, err := s.Extend(context.Background(), 3); err == nil {
		t.Error("horizon 3 beyond cap: want error, got nil")
	}
}

func assertSpacesEqual(t *testing.T, name string, want, got *Space) {
	t.Helper()
	if want.Horizon != got.Horizon {
		t.Fatalf("%s: horizon %d vs %d", name, want.Horizon, got.Horizon)
	}
	if want.Len() != got.Len() {
		t.Fatalf("%s horizon %d: %d items vs %d", name, want.Horizon, want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Item(i), got.Item(i)
		if w.Run.Key() != g.Run.Key() {
			t.Fatalf("%s horizon %d item %d: run %v vs %v", name, want.Horizon, i, w.Run, g.Run)
		}
		if w.Done != g.Done || w.DoneAt != g.DoneAt || w.Valence != g.Valence {
			t.Fatalf("%s horizon %d item %d: (done=%v doneAt=%d valence=%d) vs (done=%v doneAt=%d valence=%d)",
				name, want.Horizon, i, w.Done, w.DoneAt, w.Valence, g.Done, g.DoneAt, g.Valence)
		}
		// View IDs live in different interners; heard-sets are
		// interner-independent and pin the cone contents per (time, proc).
		for tt := 0; tt <= want.Horizon; tt++ {
			for p := 0; p < want.N(); p++ {
				if w.Views.Heard(tt, p) != g.Views.Heard(tt, p) {
					t.Fatalf("%s horizon %d item %d: heard(%d,%d) %b vs %b",
						name, want.Horizon, i, tt, p, w.Views.Heard(tt, p), g.Views.Heard(tt, p))
				}
			}
		}
	}
}

// assertViewsMatchComputed pins the columnar frontier against the
// independent per-run view computation: ptg.ComputeViews re-derives every
// row through Views.Extend from the materialized run alone, sharing the
// space's interner so IDs are directly comparable. Since BuildCtx
// constructs spaces through the same extendOne as Extend, this is the
// reference that keeps a frontier-expansion bug (wrong heard fold, wrong
// child encoding) from cancelling out of the Build-vs-Extend comparison.
func assertViewsMatchComputed(t *testing.T, name string, s *Space) {
	t.Helper()
	for i := 0; i < s.Len(); i++ {
		ref := ptg.ComputeViews(s.Interner, s.RunOf(i))
		got := s.ViewsOf(i)
		for tt := 0; tt <= s.Horizon; tt++ {
			for p := 0; p < s.N(); p++ {
				if got.ID(tt, p) != ref.ID(tt, p) || got.Heard(tt, p) != ref.Heard(tt, p) {
					t.Fatalf("%s horizon %d item %d: columnar view (%d, %b) at (t=%d, p=%d) differs from ComputeViews reference (%d, %b)",
						name, s.Horizon, i, got.ID(tt, p), got.Heard(tt, p), tt, p, ref.ID(tt, p), ref.Heard(tt, p))
				}
			}
		}
	}
}

func assertDecompositionsEqual(t *testing.T, name string, want, got *Decomposition) {
	t.Helper()
	if len(want.Comps) != len(got.Comps) {
		t.Fatalf("%s horizon %d: %d components vs %d",
			name, want.Space.Horizon, len(want.Comps), len(got.Comps))
	}
	for i := range want.CompOf {
		if want.CompOf[i] != got.CompOf[i] {
			t.Fatalf("%s horizon %d item %d: component %d vs %d",
				name, want.Space.Horizon, i, want.CompOf[i], got.CompOf[i])
		}
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("%s horizon %d item %d: label %d vs %d",
				name, want.Space.Horizon, i, want.Labels[i], got.Labels[i])
		}
	}
	for ci := range want.Comps {
		w, g := &want.Comps[ci], &got.Comps[ci]
		if !sameInts(w.Members, g.Members) || !sameInts(w.Valences, g.Valences) || w.Stab != g.Stab ||
			w.Broadcasters != g.Broadcasters || w.UniformInputs != g.UniformInputs {
			t.Fatalf("%s horizon %d component %d differs: %+v vs %+v",
				name, want.Space.Horizon, ci, w, g)
		}
	}
}
