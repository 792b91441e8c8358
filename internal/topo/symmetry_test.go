package topo

import (
	"context"
	"testing"

	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// TestQuotientMatchesFull is the soundness property of the symmetry
// quotient (DESIGN.md §13): for every seed adversary family, expanding the
// quotiented space's pseudo-items through the group reproduces the full
// space exactly — run set, per-run views, heard masks, inputs, valences,
// done times, orbit accounting, and the component decomposition as a
// partition of full-space runs with identical summaries. Families whose
// automorphism group is trivial (the eventually-stable pair) take the
// m = 1 path and pin the quotient as a strict no-op.
func TestQuotientMatchesFull(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		grp := ma.Automorphisms(adv)
		maxT := 4
		if adv.N() > 2 {
			maxT = 3
		}
		full, err := Build(adv, 2, 1, 0)
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		q, err := BuildCtx(ctx, adv, 2, 1, Config{Symmetry: grp})
		if err != nil {
			t.Fatalf("%s: quotient Build: %v", adv.Name(), err)
		}
		if grp.Trivial() != !q.Quotiented() {
			t.Fatalf("%s: group trivial=%v but Quotiented=%v", adv.Name(), grp.Trivial(), q.Quotiented())
		}
		assertQuotientExpandsToFull(t, adv.Name(), full, q)
		for horizon := 2; horizon <= maxT; horizon++ {
			full, err = full.Extend(ctx, horizon)
			if err != nil {
				t.Fatalf("%s: Extend: %v", adv.Name(), err)
			}
			q, err = q.Extend(ctx, horizon)
			if err != nil {
				t.Fatalf("%s: quotient Extend: %v", adv.Name(), err)
			}
			assertQuotientExpandsToFull(t, adv.Name(), full, q)
		}
	}
}

// TestQuotientTrivialGroupIsNoOp pins the m = 1 path: an explicitly
// trivial group must produce a space indistinguishable from a plain build
// (no sym state, no pseudo expansion, Mult 1 decompositions).
func TestQuotientTrivialGroupIsNoOp(t *testing.T) {
	ctx := context.Background()
	adv := ma.LossyLink2()
	plain, err := Build(adv, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildCtx(ctx, adv, 2, 3, Config{Symmetry: ma.TrivialGroup(adv.N())})
	if err != nil {
		t.Fatal(err)
	}
	if q.Quotiented() {
		t.Fatal("trivial group produced a quotiented space")
	}
	assertSpacesEqual(t, adv.Name(), plain, q)
	dq := Decompose(q)
	if dq.mult() != 1 {
		t.Fatalf("trivial-group decomposition has mult %d", dq.mult())
	}
	assertDecompositionsEqual(t, adv.Name(), Decompose(plain), dq)
}

// TestQuotientShrinksSpace pins the point of the exercise: for the
// symmetric lossy-link family the quotient interns strictly fewer items
// while representing the same number of full-space runs.
func TestQuotientShrinksSpace(t *testing.T) {
	adv := ma.LossyLink2()
	grp := ma.Automorphisms(adv)
	if grp.Trivial() {
		t.Fatal("lossy-link-2 automorphism group is trivial; expected the swap")
	}
	full, err := Build(adv, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildCtx(context.Background(), adv, 2, 4, Config{Symmetry: grp})
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() >= full.Len() {
		t.Fatalf("quotient interned %d items, full space %d — no reduction", q.Len(), full.Len())
	}
	if q.FullLen() != full.Len() {
		t.Fatalf("quotient FullLen %d, full space %d", q.FullLen(), full.Len())
	}
}

// TestQuotientRefineMatchesDecompose is TestRefineMatchesDecompose over
// quotiented spaces: incremental pseudo-item refinement must equal the
// from-scratch pseudo decomposition at every horizon.
func TestQuotientRefineMatchesDecompose(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		grp := ma.Automorphisms(adv)
		if grp.Trivial() {
			continue
		}
		maxT := 4
		if adv.N() > 2 {
			maxT = 3
		}
		q, err := BuildCtx(ctx, adv, 2, 1, Config{Symmetry: grp})
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecomposeCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for horizon := 2; horizon <= maxT; horizon++ {
			next, err := q.Extend(ctx, horizon)
			if err != nil {
				t.Fatal(err)
			}
			refined, err := d.Refine(ctx, next)
			if err != nil {
				t.Fatalf("%s: Refine to %d: %v", adv.Name(), horizon, err)
			}
			scratch, err := DecomposeCtx(ctx, next)
			if err != nil {
				t.Fatal(err)
			}
			assertDecompositionsEqual(t, adv.Name(), scratch, refined)
			q, d = next, refined
		}
	}
}

// TestQuotientSnapshotRestore pins the checkpoint path under a quotient:
// the page format carries no symmetry state, so a restore handed the same
// group must replay the stabilizer column to byte equality, and the
// imported orbit-canonical interner must relabel every view as the
// original did — checked by comparing stab, FullLen, a further extension,
// and the pseudo decomposition (which relabels every view of the chain).
// AncestorAt must likewise rehydrate earlier horizons with orbit
// accounting intact.
func TestQuotientSnapshotRestore(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		grp := ma.Automorphisms(adv)
		if grp.Trivial() {
			continue
		}
		horizon := 4
		if adv.N() > 2 {
			horizon = 3
		}
		dir := t.TempDir()
		pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		in := ptg.NewInterner()
		s, err := BuildCtx(ctx, adv, 2, horizon, Config{Pager: pg, Interner: in, Symmetry: grp})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		rounds := mustSnapshotChain(t, s)
		in2, err := ptg.ImportInterner(in.Export())
		if err != nil {
			t.Fatal(err)
		}
		pg2, err := pager.New(pager.Config{Dir: dir, HotBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreChain(ChainSpec{
			Adversary:   adv,
			InputDomain: 2,
			Interner:    in2,
			Pager:       pg2,
			Rounds:      rounds,
			Symmetry:    grp,
		})
		if err != nil {
			t.Fatalf("%s: RestoreChain: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name(), s, restored)
		if !restored.Quotiented() || restored.FullLen() != s.FullLen() {
			t.Fatalf("%s: restored FullLen %d (quotiented=%v), want %d",
				adv.Name(), restored.FullLen(), restored.Quotiented(), s.FullLen())
		}
		for i := range s.stab {
			if s.stab[i] != restored.stab[i] {
				t.Fatalf("%s: stab[%d] %b vs restored %b", adv.Name(), i, s.stab[i], restored.stab[i])
			}
		}
		dWant, err := DecomposeCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		dGot, err := DecomposeCtx(ctx, restored)
		if err != nil {
			t.Fatal(err)
		}
		assertDecompositionsEqual(t, adv.Name(), dWant, dGot)
		sNext, err := s.Extend(ctx, horizon+1)
		if err != nil {
			t.Fatal(err)
		}
		rNext, err := restored.Extend(ctx, horizon+1)
		if err != nil {
			t.Fatalf("%s: Extend restored: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name()+" extended", sNext, rNext)
		if sNext.FullLen() != rNext.FullLen() {
			t.Fatalf("%s: extended FullLen %d vs %d", adv.Name(), sNext.FullLen(), rNext.FullLen())
		}
		anc, err := sNext.AncestorAt(horizon - 1)
		if err != nil {
			t.Fatalf("%s: AncestorAt: %v", adv.Name(), err)
		}
		if !anc.Quotiented() || len(anc.stab) != anc.Len() {
			t.Fatalf("%s: ancestor lost quotient state", adv.Name())
		}
		dAnc, err := DecomposeCtx(ctx, anc)
		if err != nil {
			t.Fatal(err)
		}
		snap := SnapshotDecomposition(dAnc)
		if snap.Mult != anc.SymOrder() {
			t.Fatalf("%s: snapshot mult %d, want %d", adv.Name(), snap.Mult, anc.SymOrder())
		}
		dBack, err := RestoreDecomposition(anc, snap)
		if err != nil {
			t.Fatalf("%s: RestoreDecomposition: %v", adv.Name(), err)
		}
		assertDecompositionsEqual(t, adv.Name()+" ancestor", dAnc, dBack)
	}
}

// assertQuotientExpandsToFull expands every pseudo-item of q through the
// group and checks the expansion against the full space item by item, then
// checks that the pseudo decomposition induces exactly the full space's
// partition and summaries.
func assertQuotientExpandsToFull(t *testing.T, name string, full, q *Space) {
	t.Helper()
	m := q.SymOrder()
	if q.FullLen() != full.Len() {
		t.Fatalf("%s h=%d: FullLen %d vs full space %d items", name, q.Horizon, q.FullLen(), full.Len())
	}
	fullIdx := make(map[string]int, full.Len())
	for i := 0; i < full.Len(); i++ {
		fullIdx[full.RunOf(i).Key()] = i
	}
	n := q.N()
	toFull := make([]int, q.pseudoLen())
	covered := make([]bool, full.Len())
	for i := 0; i < q.Len(); i++ {
		orbit := make(map[int]bool, m)
		for k := 0; k < m; k++ {
			r := q.PseudoRun(i, k)
			fi, ok := fullIdx[r.Key()]
			if !ok {
				t.Fatalf("%s h=%d: pseudo (%d,%d) expands to run %v not in the full space", name, q.Horizon, i, k, r)
			}
			toFull[i*m+k] = fi
			covered[fi] = true
			orbit[fi] = true
			// Views of the pseudo-item must equal the independent per-run
			// computation on the expanded run.
			pv := q.PseudoViews(i, k)
			ref := ptg.ComputeViews(q.Interner, r)
			for tt := 0; tt <= q.Horizon; tt++ {
				for p := 0; p < n; p++ {
					if pv.ID(tt, p) != ref.ID(tt, p) || pv.Heard(tt, p) != ref.Heard(tt, p) {
						t.Fatalf("%s h=%d: pseudo (%d,%d) view (%d,%b) at (t=%d,p=%d) differs from ComputeViews (%d,%b)",
							name, q.Horizon, i, k, pv.ID(tt, p), pv.Heard(tt, p), tt, p, ref.ID(tt, p), ref.Heard(tt, p))
					}
				}
			}
			if got, want := q.pseudoHeardByAll(i, k), full.HeardByAll(fi); got != want {
				t.Fatalf("%s h=%d: pseudo (%d,%d) heardByAll %b vs full %b", name, q.Horizon, i, k, got, want)
			}
			for p := 0; p < n; p++ {
				if got, want := q.PseudoInput(i, k, p), full.Inputs(fi)[p]; got != want {
					t.Fatalf("%s h=%d: pseudo (%d,%d) input[%d] %d vs full %d", name, q.Horizon, i, k, p, got, want)
				}
			}
			if q.Valence(i) != full.Valence(fi) {
				t.Fatalf("%s h=%d: pseudo (%d,%d) valence %d vs full %d", name, q.Horizon, i, k, q.Valence(i), full.Valence(fi))
			}
			if q.doneAt[i] != full.doneAt[fi] {
				t.Fatalf("%s h=%d: pseudo (%d,%d) doneAt %d vs full %d", name, q.Horizon, i, k, q.doneAt[i], full.doneAt[fi])
			}
		}
		if q.OrbitSize(i) != len(orbit) {
			t.Fatalf("%s h=%d: item %d OrbitSize %d but %d distinct full runs", name, q.Horizon, i, q.OrbitSize(i), len(orbit))
		}
	}
	for fi, ok := range covered {
		if !ok {
			t.Fatalf("%s h=%d: full run %d not covered by any pseudo-item", name, q.Horizon, fi)
		}
	}
	// Decomposition: the pseudo partition pushed onto full items must be
	// well-defined (all pseudo twins of one full run agree) and equal the
	// full partition, with identical component summaries.
	df := Decompose(full)
	dq := Decompose(q)
	if dq.mult() != m {
		t.Fatalf("%s h=%d: decomposition mult %d, group order %d", name, q.Horizon, dq.mult(), m)
	}
	induced := make([]int, full.Len())
	for i := range induced {
		induced[i] = -1
	}
	for pi, fi := range toFull {
		c := dq.CompOf[pi]
		if induced[fi] == -1 {
			induced[fi] = c
		} else if induced[fi] != c {
			t.Fatalf("%s h=%d: full run %d lands in quotient components %d and %d", name, q.Horizon, fi, induced[fi], c)
		}
	}
	wantCanon := canonPartition(df.CompOf)
	gotCanon := canonPartition(induced)
	for i := range wantCanon {
		if wantCanon[i] != gotCanon[i] {
			t.Fatalf("%s h=%d: induced partition differs from full at item %d (full comp %d-class, quotient %d-class)",
				name, q.Horizon, i, wantCanon[i], gotCanon[i])
		}
	}
	for ci := range df.Comps {
		fc := &df.Comps[ci]
		qc := &dq.Comps[induced[fc.Members[0]]]
		if !sameInts(fc.Valences, qc.Valences) || fc.Broadcasters != qc.Broadcasters || fc.UniformInputs != qc.UniformInputs {
			t.Fatalf("%s h=%d: component summaries differ: full %+v vs quotient %+v", name, q.Horizon, fc, qc)
		}
	}
}

// canonPartition relabels component ids by first occurrence, so two
// partitions over the same index set compare slice-equal iff they are the
// same partition.
func canonPartition(labels []int) []int {
	out := make([]int, len(labels))
	remap := make(map[int]int, len(labels))
	for i, l := range labels {
		c, ok := remap[l]
		if !ok {
			c = len(remap)
			remap[l] = c
		}
		out[i] = c
	}
	return out
}
