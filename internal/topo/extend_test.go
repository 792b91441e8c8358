package topo

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"topocon/internal/advgen"
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

// extendOneReference is extendOne without the in-mask memo: it interns
// every kept child's view of every process with its own Interner.Node call,
// as extension did before the memo existed. It runs sequentially, without
// pager or size cap, and is the oracle the memo must match byte for byte.
func extendOneReference(s *Space) *Space {
	adv, grp, n := s.Adversary, s.sym.group, s.fr.n
	nf := &frontier{horizon: s.Horizon + 1, n: n, prev: s.fr, base: s.fr.base}
	next := &Space{
		Adversary:     adv,
		InputDomain:   s.InputDomain,
		Horizon:       s.Horizon + 1,
		Interner:      s.Interner,
		fr:            nf,
		parentOffsets: []int{0},
		maxRuns:       s.maxRuns,
		parallelism:   1,
		sym:           s.sym,
	}
	for i := 0; i < s.Len(); i++ {
		prevIDs, prevHeard := s.fr.idRow(i), s.fr.heardRow(i)
		for _, g := range adv.Choices(s.states[i]) {
			cStab := uint64(1)
			if s.stab[i] != 1 {
				if cStab = graphOrbitStab(g, grp, s.stab[i]); cStab == 0 {
					continue
				}
			}
			for p := 0; p < n; p++ {
				var h uint64
				for m := g.In(p); m != 0; m &= m - 1 {
					h |= prevHeard[bits.TrailingZeros64(m)]
				}
				nf.ids = append(nf.ids, s.Interner.Node(p, g.In(p), prevIDs))
				nf.heard = append(nf.heard, h)
			}
			state := adv.Step(s.states[i], g)
			doneAt := s.doneAt[i]
			if doneAt < 0 && adv.Done(state) {
				doneAt = int32(next.Horizon)
			}
			nf.gs = append(nf.gs, g)
			nf.parentOf = append(nf.parentOf, int32(i))
			nf.rootOf = append(nf.rootOf, s.fr.rootOf[i])
			next.states = append(next.states, state)
			next.doneAt = append(next.doneAt, doneAt)
			next.valence = append(next.valence, s.valence[i])
			next.stab = append(next.stab, cStab)
		}
		next.parentOffsets = append(next.parentOffsets, len(nf.gs))
	}
	nf.count = len(nf.gs)
	return next
}

// memoCase is one adversary and symmetry group the in-mask memo is pinned
// on, with the horizon its spaces are extended to.
type memoCase struct {
	name    string
	adv     ma.Adversary
	sym     *ma.Group
	horizon int
}

// memoCases covers the corpus's symmetric star with and without its S₃,
// LossyLink3 under the trivial group and its swap, a random five-process
// adversary wider than the memo, and generated adversaries closed under a
// permutation (advgen), each extended as deep as a unit test affords.
func memoCases(t *testing.T) []memoCase {
	star, ll3 := advgen.LossyStar4(), ma.LossyLink3()
	cases := []memoCase{
		{"lossy-star-4/trivial", star, ma.TrivialGroup(4), 5},
		{"lossy-star-4/S3", star, ma.Automorphisms(star), 6},
		{"lossylink3/trivial", ll3, ma.TrivialGroup(2), 6},
		{"lossylink3/auto", ll3, ma.Automorphisms(ll3), 6},
	}
	rng := rand.New(rand.NewSource(16))
	// Five processes over 24 random graphs: most processes meet more
	// in-masks under one parent than the memo keeps (memoWidth).
	wide := make([]graph.Graph, 24)
	for k := range wide {
		in := make([]uint64, 5)
		for p := range in {
			in[p] = uint64(rng.Intn(1 << 5))
		}
		g, err := graph.FromInMasks(5, in)
		if err != nil {
			t.Fatal(err)
		}
		wide[k] = g
	}
	cases = append(cases, memoCase{"wide-5/trivial", ma.MustOblivious("wide-5", wide...), ma.TrivialGroup(5), 2})
	for i := 0; i < 6; i++ {
		adv := advgen.SymmetricOblivious(rng, 2+i%3)
		h := 1
		for h < 5 && ma.CountPrefixes(adv, h+1) <= 4096 {
			h++
		}
		cases = append(cases, memoCase{fmt.Sprintf("advgen-%d/n=%d", i, adv.N()), adv, ma.Automorphisms(adv), h})
	}
	return cases
}

// TestExtendMemoMatchesReference pins that the in-mask memo cannot change
// a byte: sequential extension must give, round by round, the reference
// extender's view-ID and heard columns, the same full-space accounting and
// — since it interns in the same first-occurrence order — a byte-identical
// Interner.Export blob.
func TestExtendMemoMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, c := range memoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := BuildCtx(ctx, c.adv, 2, 0, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := BuildCtx(ctx, c.adv, 2, 0, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			for h := 1; h <= c.horizon; h++ {
				if got, err = got.extendOne(ctx); err != nil {
					t.Fatal(err)
				}
				ref = extendOneReference(ref)
				if got.Len() != ref.Len() || got.FullLen() != ref.FullLen() {
					t.Fatalf("h=%d: %d items (%d full), reference %d (%d full)",
						h, got.Len(), got.FullLen(), ref.Len(), ref.FullLen())
				}
				for i, id := range ref.fr.ids {
					if got.fr.ids[i] != id || got.fr.heard[i] != ref.fr.heard[i] {
						t.Fatalf("h=%d item %d process %d: view (%d, %b), reference (%d, %b)",
							h, i/got.N(), i%got.N(), got.fr.ids[i], got.fr.heard[i], id, ref.fr.heard[i])
					}
				}
				if !slices.Equal(got.stab, ref.stab) || !slices.Equal(got.parentOffsets, ref.parentOffsets) {
					t.Fatalf("h=%d: stabilizers or child layout differ from the reference", h)
				}
			}
			gb, err := got.Interner.Export()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ref.Interner.Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, rb) {
				t.Fatalf("interner blob (%d bytes) differs from the reference's (%d bytes)", len(gb), len(rb))
			}
		})
	}
}

// TestExtendMemoParallelMatchesReference runs the memo on two workers,
// where interning order is no longer deterministic: the decomposition must
// still have the reference's full-space component and mixed counts at
// every horizon.
func TestExtendMemoParallelMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, c := range memoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := BuildCtx(ctx, c.adv, 2, 0, Config{Symmetry: c.sym, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := BuildCtx(ctx, c.adv, 2, 0, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			for h := 1; h <= c.horizon; h++ {
				if got, err = got.extendOne(ctx); err != nil {
					t.Fatal(err)
				}
				ref = extendOneReference(ref)
				dg, dr := decompose(t, got), decompose(t, ref)
				if dg.FullComponents() != dr.FullComponents() || dg.FullMixedComponents() != dr.FullMixedComponents() {
					t.Fatalf("h=%d: %d components (%d mixed), reference %d (%d mixed)", h,
						dg.FullComponents(), dg.FullMixedComponents(), dr.FullComponents(), dr.FullMixedComponents())
				}
			}
		})
	}
}

// noSharing returns an oblivious adversary on n processes whose 2^(n-1)
// graphs give every process a different in-mask each: the in-mask memo
// never hits, and without its width cap every cell would scan all the
// masks met so far.
func noSharing(b *testing.B, n int) ma.Adversary {
	gs := make([]graph.Graph, 1<<(n-1))
	for k := range gs {
		in := make([]uint64, n)
		for p := range in {
			i := 0
			for q := 0; q < n; q++ {
				if q == p {
					continue
				}
				if k>>i&1 == 1 {
					in[p] |= 1 << q
				}
				i++
			}
		}
		g, err := graph.FromInMasks(n, in)
		if err != nil {
			b.Fatal(err)
		}
		gs[k] = g
	}
	return ma.MustOblivious(fmt.Sprintf("no-sharing-%d", n), gs...)
}

// BenchmarkExtendNoSharing times one warm extension round of the memo's
// worst case, an adversary whose siblings share no in-mask, at n = 5, 6
// and 7 (16, 32 and 64 graphs; 655,360, 393,216 and 57,344 cells).
func BenchmarkExtendNoSharing(b *testing.B) {
	for _, c := range []struct{ n, horizon int }{{5, 2}, {6, 1}, {7, 0}} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			ctx := context.Background()
			s, err := BuildCtx(ctx, noSharing(b, c.n), 2, c.horizon, Config{})
			if err != nil {
				b.Fatal(err)
			}
			// The first round interns every view; the timed ones only
			// look them up.
			if _, err := s.extendOne(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if _, err := s.extendOne(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
