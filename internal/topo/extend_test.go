package topo

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"topocon/internal/advgen"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
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
// size cap, and hands the pager on without spilling; it is the oracle the
// memo and the successor table must match byte for byte.
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
		pager:         s.pager,
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

// memoCase is one adversary and symmetry group the in-mask memo and the
// successor table are pinned on, with the horizon its spaces are extended
// to. start, when set, builds the space extension starts from, running
// any rounds it needs with the given extender; nil starts from a fresh
// horizon-0 space.
type memoCase struct {
	name    string
	adv     ma.Adversary
	sym     *ma.Group
	horizon int
	start   func(t *testing.T, cfg Config, extend func(*Space) *Space) *Space
}

// memoCases covers the corpus's symmetric star with and without its S₃,
// LossyLink3 under the trivial group and its swap, a random five-process
// adversary wider than the memo, generated adversaries closed under a
// permutation (advgen) and one closed under all of S₄, each extended as
// deep as a unit test affords; and two starts the successor table does not
// build itself: a head restored by RestoreChain, whose cone range is
// rebuilt from its views, and a space whose interner an earlier space
// filled, whose views lie outside its rounds' cone ranges.
func memoCases(t *testing.T) []memoCase {
	star, ll3 := advgen.LossyStar4(), ma.LossyLink3()
	starS3 := ma.Automorphisms(star)
	cases := []memoCase{
		{"lossy-star-4/trivial", star, ma.TrivialGroup(4), 5, nil},
		{"lossy-star-4/S3", star, starS3, 6, nil},
		{"lossylink3/trivial", ll3, ma.TrivialGroup(2), 6, nil},
		{"lossylink3/auto", ll3, ma.Automorphisms(ll3), 6, nil},
		{"lossy-star-4/S3/restored", star, starS3, 5, restoredStart(star, 3)},
		{"lossy-star-4/trivial/restored", star, ma.TrivialGroup(4), 4, restoredStart(star, 2)},
		{"lossy-star-4/S3/shared-interner", star, starS3, 6, sharedInternerStart(star, 4)},
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
	cases = append(cases, memoCase{"wide-5/trivial", ma.MustOblivious("wide-5", wide...), ma.TrivialGroup(5), 2, nil})
	for i := 0; i < 6; i++ {
		adv := advgen.SymmetricOblivious(rng, 2+i%3)
		h := 1
		for h < 5 && ma.CountPrefixes(adv, h+1) <= 4096 {
			h++
		}
		cases = append(cases, memoCase{fmt.Sprintf("advgen-%d/n=%d", i, adv.N()), adv, ma.Automorphisms(adv), h, nil})
	}
	// Under S₄ a stored cone stands for up to 24 IDs c·24 + ℓ: the table's
	// cell index is c, and only the exact-ID tag tells the ℓ apart.
	s4 := advgen.FullySymmetricOblivious(rand.New(rand.NewSource(3)), 4)
	if grp := ma.Automorphisms(s4); grp.Order() != 24 || !hasSelfOnlyMask(s4) {
		t.Fatalf("advgen S₄ adversary: group order %d, self-only in-mask %v", grp.Order(), hasSelfOnlyMask(s4))
	}
	cases = append(cases, memoCase{"advgen-S4/n=4", s4, ma.Automorphisms(s4), 3, nil})
	return cases
}

// hasSelfOnlyMask reports whether some graph of adv gives some process
// the in-neighbourhood of itself alone.
func hasSelfOnlyMask(adv ma.Adversary) bool {
	for _, g := range adv.Choices(adv.Start()) {
		for p := 0; p < adv.N(); p++ {
			if g.In(p) == 1<<p {
				return true
			}
		}
	}
	return false
}

// restoredStart extends a paged space to the given horizon, checkpoints
// its chain and interner, and restores both into fresh objects, as a
// resumed session does.
func restoredStart(adv ma.Adversary, horizon int) func(*testing.T, Config, func(*Space) *Space) *Space {
	return func(t *testing.T, cfg Config, extend func(*Space) *Space) *Space {
		dir := t.TempDir()
		pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pager = pg
		s, err := BuildCtx(context.Background(), adv, 2, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s.Horizon < horizon {
			s = extend(s)
		}
		rounds := mustSnapshotChain(t, s)
		pg2, err := pager.New(pager.Config{Dir: dir, HotBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreChain(ChainSpec{
			Adversary:   adv,
			InputDomain: 2,
			Interner:    reimport(t, s.Interner),
			Pager:       pg2,
			Rounds:      rounds,
			Symmetry:    cfg.Symmetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		return restored
	}
}

// TestRestoreChainRecordsConeRange pins that every round RestoreChain
// reads from a page records the cone range its original extension
// recorded, so the first round after a resume answers self-only repeats
// from the successor table. (Horizon 0 is rebuilt, not restored.)
func TestRestoreChainRecordsConeRange(t *testing.T) {
	ctx := context.Background()
	star := advgen.LossyStar4()
	for _, sym := range []*ma.Group{ma.Automorphisms(star), ma.TrivialGroup(4)} {
		for horizon := 1; horizon <= 4; horizon++ {
			dir := t.TempDir()
			pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s, err := BuildCtx(ctx, star, 2, horizon, Config{Pager: pg, Symmetry: sym})
			if err != nil {
				t.Fatal(err)
			}
			rounds := mustSnapshotChain(t, s)
			pg2, err := pager.New(pager.Config{Dir: dir, HotBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreChain(ChainSpec{
				Adversary:   star,
				InputDomain: 2,
				Interner:    reimport(t, s.Interner),
				Pager:       pg2,
				Rounds:      rounds,
				Symmetry:    sym,
			})
			if err != nil {
				t.Fatal(err)
			}
			for f, g := s.fr, restored.fr; f.horizon > 0; f, g = f.prev, g.prev {
				if f.idLo != g.idLo || f.idHi != g.idHi {
					t.Errorf("|G|=%d horizon %d round %d: restored range [%d, %d), extension recorded [%d, %d)",
						sym.Order(), horizon, f.horizon, g.idLo, g.idHi, f.idLo, f.idHi)
				}
			}
		}
	}
}

// sharedInternerStart extends one space to the given horizon and starts a
// second from horizon 0 on the same interner: the second space's views up
// to that horizon are all stored already, below its rounds' cone ranges.
func sharedInternerStart(adv ma.Adversary, horizon int) func(*testing.T, Config, func(*Space) *Space) *Space {
	return func(t *testing.T, cfg Config, extend func(*Space) *Space) *Space {
		first, err := BuildCtx(context.Background(), adv, 2, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for first.Horizon < horizon {
			first = extend(first)
		}
		cfg.Interner = first.Interner
		s, err := BuildCtx(context.Background(), adv, 2, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// startSpace returns the space case c extends from under cfg.
func (c memoCase) startSpace(t *testing.T, cfg Config, extend func(*Space) *Space) *Space {
	t.Helper()
	cfg.Symmetry = c.sym
	if c.start != nil {
		return c.start(t, cfg, extend)
	}
	s, err := BuildCtx(context.Background(), c.adv, 2, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustExtendOne returns extendOne's space, failing t on an error.
func mustExtendOne(t *testing.T) func(*Space) *Space {
	return func(s *Space) *Space {
		t.Helper()
		next, err := s.extendOne(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
}

// TestExtendMemoMatchesReference pins that the in-mask memo and the
// successor table cannot change a byte: sequential extension must give,
// round by round, the reference extender's view-ID and heard columns, the
// same full-space accounting and — since it interns in the same
// first-occurrence order — a byte-identical Interner.Export blob.
func TestExtendMemoMatchesReference(t *testing.T) {
	for _, c := range memoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got := c.startSpace(t, Config{}, mustExtendOne(t))
			ref := c.startSpace(t, Config{}, extendOneReference)
			for got.Horizon < c.horizon {
				got = mustExtendOne(t)(got)
				ref = extendOneReference(ref)
				h := got.Horizon
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

// TestExtendMemoParallelMatchesReference runs every case in two sessions
// at once, each on its own goroutine with its own interner, as concurrent
// jobs of the daemon and a sweep's cells run: the extension scratch is
// pooled process-wide, so each session must still give the reference
// extender's view-ID and heard columns and a byte-identical export. Run it
// under -race.
func TestExtendMemoParallelMatchesReference(t *testing.T) {
	for _, c := range memoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ref := c.startSpace(t, Config{}, extendOneReference)
			for ref.Horizon < c.horizon {
				ref = extendOneReference(ref)
			}
			want, err := ref.Interner.Export()
			if err != nil {
				t.Fatal(err)
			}
			var spaces [2]*Space
			var errs [2]error
			for w := range spaces {
				spaces[w] = c.startSpace(t, Config{}, mustExtendOne(t))
			}
			var wg sync.WaitGroup
			for w := range spaces {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for spaces[w].Horizon < c.horizon {
						next, err := spaces[w].extendOne(context.Background())
						if err != nil {
							errs[w] = err
							return
						}
						spaces[w] = next
					}
				}()
			}
			wg.Wait()
			for w, got := range spaces {
				if errs[w] != nil {
					t.Fatalf("session %d: %v", w, errs[w])
				}
				if !slices.Equal(got.fr.ids, ref.fr.ids) || !slices.Equal(got.fr.heard, ref.fr.heard) {
					t.Fatalf("session %d: horizon-%d view columns differ from the reference", w, c.horizon)
				}
				if blob, err := got.Interner.Export(); err != nil || !bytes.Equal(blob, want) {
					t.Fatalf("session %d: interner blob (%d bytes, %v) differs from the reference's (%d bytes)",
						w, len(blob), err, len(want))
				}
			}
		})
	}
}

// TestExtendReleasesFrontiers pins that extension keeps no session alive:
// the pooled scratch holds view IDs only, not a frontier, so once the
// caller drops a space one collection reclaims its chain even while the
// scratch sits in the pool.
func TestExtendReleasesFrontiers(t *testing.T) {
	head, parent := extendedChain(t)
	runtime.GC()
	if head.Value() != nil || parent.Value() != nil {
		t.Fatal("an extended session's frontiers survived a collection after Extend returned")
	}
}

// extendedChain extends a lossy-star-4 session under its S₃ two rounds
// past horizon 2 and returns weak pointers to the head frontier and to
// its parent, the round the last successor table covered.
func extendedChain(t *testing.T) (head, parent weak.Pointer[frontier]) {
	star := advgen.LossyStar4()
	s, err := BuildCtx(context.Background(), star, 2, 2, Config{Symmetry: ma.Automorphisms(star)})
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Extend(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(next.fr), weak.Make(next.fr.prev)
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
