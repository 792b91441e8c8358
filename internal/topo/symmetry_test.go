package topo

import (
	"context"
	"slices"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// TestQuotientMatchesFull is the soundness property of the symmetry
// quotient (DESIGN.md §13): for every seed adversary family, expanding the
// quotiented space's representatives through the group reproduces the full
// space exactly — run set, per-run views, heard masks, inputs, valences,
// done times, orbit accounting, and the component decomposition as a
// partition of full-space runs with identical summaries. Families whose
// automorphism group is trivial (the eventually-stable pair) take the
// m = 1 path and pin the quotient as a strict no-op.
func TestQuotientMatchesFull(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		grp := ma.Automorphisms(adv).OnDomain(2)
		maxT := 4
		if adv.N() > 2 {
			maxT = 3
		}
		full, err := BuildCtx(context.Background(), adv, 2, 1, Config{})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		q, err := BuildCtx(ctx, adv, 2, 1, Config{Symmetry: grp})
		if err != nil {
			t.Fatalf("%s: quotient Build: %v", adv.Name(), err)
		}
		if q.SymOrder() != grp.Order() {
			t.Fatalf("%s: group order %d but SymOrder %d", adv.Name(), grp.Order(), q.SymOrder())
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
// (order-1 symmetry state, all-ones stabilizers, identity labels).
func TestQuotientTrivialGroupIsNoOp(t *testing.T) {
	ctx := context.Background()
	adv := ma.LossyLink2()
	plain, err := BuildCtx(context.Background(), adv, 2, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildCtx(ctx, adv, 2, 3, Config{Symmetry: ma.TrivialGroup(adv.N())})
	if err != nil {
		t.Fatal(err)
	}
	if q.SymOrder() != 1 || plain.SymOrder() != 1 {
		t.Fatalf("trivial group has order %d, plain build %d", q.SymOrder(), plain.SymOrder())
	}
	for i := range q.stab {
		if q.stab[i] != 1 || plain.stab[i] != 1 {
			t.Fatalf("item %d stabilizer %b (plain %b) under the trivial group", i, q.stab[i], plain.stab[i])
		}
	}
	assertSpacesEqual(t, adv.Name(), plain, q)
	dq := decompose(t, q)
	for i, l := range dq.Labels {
		if l != 0 {
			t.Fatalf("trivial-group decomposition labels item %d with %d", i, l)
		}
	}
	for ci := range dq.Comps {
		if dq.Comps[ci].Stab != 1 || dq.OrbitSize(ci) != 1 {
			t.Fatalf("trivial-group component %d has stabilizer %b", ci, dq.Comps[ci].Stab)
		}
	}
	assertDecompositionsEqual(t, adv.Name(), decompose(t, plain), dq)
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
	full, err := BuildCtx(context.Background(), adv, 2, 4, Config{})
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

// TestValuePartHalvesQuotient pins what pairing the process group with the
// permutations of the input values buys: with two values the swap fixes
// no input vector, and so no run, whenever the process group cannot undo
// it, so the interned representatives are exactly half of the process
// group's at every horizon while FullLen is unchanged. On lossy-star-4 the
// S₃ on the leaves fixes the centre, whose input the swap flips; on
// asymmetric{<-,<->} the process group is trivial, so the quotient is half
// the full space.
func TestValuePartHalvesQuotient(t *testing.T) {
	ctx := context.Background()
	star := advgen.LossyStar4()
	asym := ma.MustOblivious("asymmetric{<-,<->}", graph.Left, graph.Both)
	// The process group's counts, as the quotient interned them before it
	// had a value part.
	starProcess := []int{20, 60, 204, 748, 2860, 11180, 44204}
	for _, tc := range []struct {
		adv     ma.Adversary
		process []int // representatives under the process group, horizons 1..7
	}{
		{star, starProcess},
		{asym, nil},
	} {
		grp := ma.Automorphisms(tc.adv)
		full, err := BuildCtx(ctx, tc.adv, 2, 0, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// OnDomain(1) resolves no value part: the process group alone.
		proc, err := BuildCtx(ctx, tc.adv, 2, 0, Config{Symmetry: grp.OnDomain(1)})
		if err != nil {
			t.Fatal(err)
		}
		q, err := BuildCtx(ctx, tc.adv, 2, 0, Config{Symmetry: grp})
		if err != nil {
			t.Fatal(err)
		}
		if q.SymOrder() != 2*grp.Order() || proc.SymOrder() != grp.Order() {
			t.Fatalf("%s: group orders %d and %d, want %d and %d", tc.adv.Name(), q.SymOrder(), proc.SymOrder(), 2*grp.Order(), grp.Order())
		}
		for h := 1; h <= 7; h++ {
			for _, s := range []**Space{&full, &proc, &q} {
				if *s, err = (*s).Extend(ctx, h); err != nil {
					t.Fatal(err)
				}
			}
			if tc.process != nil && proc.Len() != tc.process[h-1] {
				t.Fatalf("%s h=%d: the process group interns %d representatives, want %d", tc.adv.Name(), h, proc.Len(), tc.process[h-1])
			}
			if 2*q.Len() != proc.Len() || q.FullLen() != full.Len() || proc.FullLen() != full.Len() {
				t.Fatalf("%s h=%d: %d representatives under G × Sym(V), %d under G, %d full runs (FullLen %d and %d)",
					tc.adv.Name(), h, q.Len(), proc.Len(), full.Len(), q.FullLen(), proc.FullLen())
			}
		}
	}
}

// TestQuotientRefineMatchesDecompose pins the orbit decomposition of an
// extended chain: decomposing each horizon of a chain grown round by round
// from the horizon-0 base must equal decomposing a from-scratch build of
// that horizon, which shares no interner with the chain.
func TestQuotientRefineMatchesDecompose(t *testing.T) {
	for _, adv := range seedAdversaries(t) {
		grp := ma.Automorphisms(adv)
		if grp.Trivial() {
			continue
		}
		maxT := 4
		if adv.N() > 2 {
			maxT = 3
		}
		assertQuotientRefineMatchesDecompose(t, adv, grp, maxT)
	}
	// A deeper chain: 254 component orbits at horizon 7.
	assertQuotientRefineMatchesDecompose(t, ma.LossyLink2(), ma.Automorphisms(ma.LossyLink2()), 7)
}

func assertQuotientRefineMatchesDecompose(t *testing.T, adv ma.Adversary, grp *ma.Group, maxT int) {
	t.Helper()
	ctx := context.Background()
	q, err := BuildCtx(ctx, adv, 2, 0, Config{Symmetry: grp})
	if err != nil {
		t.Fatal(err)
	}
	for horizon := 1; horizon <= maxT; horizon++ {
		if q, err = q.Extend(ctx, horizon); err != nil {
			t.Fatal(err)
		}
		got, err := DecomposeCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s: DecomposeCtx at %d: %v", adv.Name(), horizon, err)
		}
		built, err := BuildCtx(ctx, adv, 2, horizon, Config{Symmetry: grp})
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecomposeCtx(ctx, built)
		if err != nil {
			t.Fatal(err)
		}
		assertDecompositionsEqual(t, adv.Name(), want, got)
	}
}

// TestQuotientSnapshotRestore pins the checkpoint path under a quotient:
// the page format carries no symmetry state, so a restore handed the same
// group must replay the stabilizer column to byte equality, and the
// imported orbit-canonical interner must relabel every view as the
// original did — checked by comparing stab, FullLen, a further extension,
// and the orbit decomposition (which reads every view's orbit id).
// AncestorAt must likewise rehydrate earlier horizons with orbit
// accounting intact.
func TestQuotientSnapshotRestore(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		grp := ma.Automorphisms(adv).OnDomain(2)
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
		rounds, rows := mustSnapshotChain(t, s)
		in2 := reimport(t, in)
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
			RowDigest:   rows,
			Symmetry:    grp,
		})
		if err != nil {
			t.Fatalf("%s: RestoreChain: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name(), s, restored)
		if restored.SymOrder() != grp.Order() || restored.FullLen() != s.FullLen() {
			t.Fatalf("%s: restored FullLen %d (group order %d), want %d",
				adv.Name(), restored.FullLen(), restored.SymOrder(), s.FullLen())
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
		if anc.SymOrder() != grp.Order() || len(anc.stab) != anc.Len() {
			t.Fatalf("%s: ancestor lost quotient state", adv.Name())
		}
		rAnc, err := rNext.AncestorAt(horizon - 1)
		if err != nil {
			t.Fatalf("%s: restored AncestorAt: %v", adv.Name(), err)
		}
		dAnc, err := DecomposeCtx(ctx, anc)
		if err != nil {
			t.Fatal(err)
		}
		dBack, err := DecomposeCtx(ctx, rAnc)
		if err != nil {
			t.Fatal(err)
		}
		assertDecompositionsEqual(t, adv.Name()+" ancestor", dAnc, dBack)
	}
}

// assertQuotientExpandsToFull expands every representative of q through the
// group and checks the expansion against the full space item by item, then
// checks that the orbit decomposition induces exactly the full space's
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
	toFull := make([]int, q.Len()*m)
	covered := make([]bool, full.Len())
	for i := 0; i < q.Len(); i++ {
		orbit := make(map[int]bool, m)
		for k := 0; k < m; k++ {
			r := q.PseudoRun(i, k)
			fi, ok := fullIdx[r.Key()]
			if !ok {
				t.Fatalf("%s h=%d: twin (%d,%d) expands to run %v not in the full space", name, q.Horizon, i, k, r)
			}
			toFull[i*m+k] = fi
			covered[fi] = true
			orbit[fi] = true
			// Views of the twin must equal the independent per-run
			// computation on the expanded run.
			pv := q.PseudoViews(i, k)
			ref := ptg.ComputeViews(q.Interner, r)
			for tt := 0; tt <= q.Horizon; tt++ {
				for p := 0; p < n; p++ {
					if pv.ID(tt, p) != ref.ID(tt, p) || pv.Heard(tt, p) != ref.Heard(tt, p) {
						t.Fatalf("%s h=%d: twin (%d,%d) view (%d,%b) at (t=%d,p=%d) differs from ComputeViews (%d,%b)",
							name, q.Horizon, i, k, pv.ID(tt, p), pv.Heard(tt, p), tt, p, ref.ID(tt, p), ref.Heard(tt, p))
					}
				}
			}
			if got, want := q.permuteMask(q.HeardByAll(i), uint8(k)), full.HeardByAll(fi); got != want {
				t.Fatalf("%s h=%d: twin (%d,%d) heardByAll %b vs full %b", name, q.Horizon, i, k, got, want)
			}
			// Process p of the twin holds π_k of the rep's input at
			// σ_k⁻¹(p), and the twin's valence is π_k of the rep's.
			grp := q.SymGroup()
			for p := 0; p < n; p++ {
				if got, want := grp.Value(k, q.Inputs(i)[grp.InvPerm(k)[p]]), full.Inputs(fi)[p]; got != want {
					t.Fatalf("%s h=%d: twin (%d,%d) input[%d] %d vs full %d", name, q.Horizon, i, k, p, got, want)
				}
			}
			if got := grp.Value(k, q.Valence(i)); got != full.Valence(fi) {
				t.Fatalf("%s h=%d: twin (%d,%d) valence %d vs full %d", name, q.Horizon, i, k, got, full.Valence(fi))
			}
			if q.doneAt[i] != full.doneAt[fi] {
				t.Fatalf("%s h=%d: twin (%d,%d) doneAt %d vs full %d", name, q.Horizon, i, k, q.doneAt[i], full.doneAt[fi])
			}
		}
		if q.OrbitSize(i) != len(orbit) {
			t.Fatalf("%s h=%d: item %d OrbitSize %d but %d distinct full runs", name, q.Horizon, i, q.OrbitSize(i), len(orbit))
		}
	}
	for fi, ok := range covered {
		if !ok {
			t.Fatalf("%s h=%d: full run %d not covered by any twin", name, q.Horizon, fi)
		}
	}
	// Decomposition: the orbit decomposition expanded onto full items must
	// be well-defined (all twins of one full run agree) and equal the full
	// partition, with identical component summaries.
	df := decompose(t, full)
	dq := decompose(t, q)
	induced := make([]int, full.Len())
	for i := range induced {
		induced[i] = -1
	}
	sums := map[int]Component{}
	for pi, fi := range toFull {
		key, sum := expandTwin(dq, pi/m, pi%m)
		if induced[fi] == -1 {
			induced[fi] = key
			sums[key] = sum
		} else if induced[fi] != key {
			t.Fatalf("%s h=%d: full run %d lands in quotient components %d and %d", name, q.Horizon, fi, induced[fi], key)
		}
	}
	if got, want := dq.FullComponents(), len(df.Comps); got != want {
		t.Fatalf("%s h=%d: %d full components from the orbits, full space has %d", name, q.Horizon, got, want)
	}
	if got, want := dq.FullMixedComponents(), len(df.MixedComponents()); got != want {
		t.Fatalf("%s h=%d: %d mixed full components from the orbits, full space has %d", name, q.Horizon, got, want)
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
		qc := sums[induced[fc.Members[0]]]
		if !slices.Equal(fc.Valences, qc.Valences) || fc.Broadcasters != qc.Broadcasters || fc.UniformInputs != qc.UniformInputs {
			t.Fatalf("%s h=%d: component summaries differ: full %+v vs quotient %+v", name, q.Horizon, fc, qc)
		}
	}
}

// expandTwin locates the twin σ_k·(run i) in the full space's components:
// it lies in the twin σ_g, g = k∘L_i⁻¹, of its orbit's base component, and
// σ_g names the same component for every g in the coset g·Stab. The key
// identifies that full component (orbit and least coset element) and the
// summary is the base component's, relabeled by σ_g: processes by its
// process part, valences by its value part.
func expandTwin(d *Decomposition, i, k int) (int, Component) {
	s := d.Space
	grp := s.sym
	ci := int(d.CompOf[i])
	c := &d.Comps[ci]
	g := grp.MinCoset(1, grp.Mul(uint8(k), grp.Inv(d.Labels[i])), c.Stab)
	var valences []int
	for _, v := range c.Valences {
		valences = append(valences, s.SymGroup().Value(int(g), v))
	}
	slices.Sort(valences)
	return ci*64 + int(g), Component{
		Valences:      valences,
		Broadcasters:  s.permuteMask(c.Broadcasters, g),
		UniformInputs: s.permuteMask(c.UniformInputs, g),
	}
}

// canonPartition relabels component ids by first occurrence, so two
// partitions over the same index set compare slice-equal iff they are the
// same partition.
func canonPartition[T comparable](labels []T) []int {
	out := make([]int, len(labels))
	remap := make(map[T]int, len(labels))
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

// TestSummarizeClosesUnderStabilizer pins the stabilizer closure of the
// component summaries: a component whose stabilizer swaps the two
// processes holds both the member's run and its swapped twin, so a process
// is uniform only if the twin agrees — with inputs (0,1) neither is — and
// a broadcaster only if it is one in both.
func TestSummarizeClosesUnderStabilizer(t *testing.T) {
	q, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 1, Config{Symmetry: ma.Automorphisms(ma.LossyLink2())})
	if err != nil {
		t.Fatal(err)
	}
	// The order is |S₂ × Sym({0,1})|; element 1 is the process swap with
	// the identity on values.
	if q.SymOrder() != 4 {
		t.Fatalf("lossy-link-2 group order %d, want 4", q.SymOrder())
	}
	d := &Decomposition{Space: q, CompOf: make([]int32, q.Len()), Labels: make([]uint8, q.Len())}
	checked := 0
	for i := 0; i < q.Len(); i++ {
		in := q.Inputs(i)
		if in[0] == in[1] {
			continue
		}
		c := Component{Members: []int32{int32(i)}, Stab: 0b11}
		d.summarize(&c)
		if c.UniformInputs != 0 {
			t.Errorf("item %d (inputs %v): uniform inputs %b, want none", i, in, c.UniformInputs)
		}
		h := q.HeardByAll(i)
		if want := h & q.permuteMask(h, 1); c.Broadcasters != want {
			t.Errorf("item %d: broadcasters %b, want %b", i, c.Broadcasters, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no item with distinct inputs")
	}
}

// TestBuildRejectsMismatchedInterner pins that a space and its interner
// agree on the group: a build without symmetry is a trivial-group build,
// and an interner that adopted a nontrivial group encodes every view's
// orbit in its ID, so the build must fail instead of mis-reading those IDs
// in a later decomposition.
func TestBuildRejectsMismatchedInterner(t *testing.T) {
	ctx := context.Background()
	adv := ma.LossyLink2()
	q, err := BuildCtx(ctx, adv, 2, 2, Config{Symmetry: ma.Automorphisms(adv)})
	if err != nil {
		t.Fatal(err)
	}
	for name, grp := range map[string]*ma.Group{"nil": nil, "trivial": ma.TrivialGroup(adv.N())} {
		s, err := BuildCtx(ctx, adv, 2, 3, Config{Interner: q.Interner, Symmetry: grp})
		if err == nil {
			t.Fatalf("%s symmetry on an orbit-canonical interner: built %d runs, want an error", name, s.Len())
		}
	}
}

// TestTrivialGroupBeyondOrbitProcs pins that the trivial group builds at
// any process count a graph supports: only nontrivial groups are bounded
// by the orbit-canonical interner's process limit.
func TestTrivialGroupBeyondOrbitProcs(t *testing.T) {
	ctx := context.Background()
	adv := ma.MustOblivious("complete-17", graph.Complete(17))
	s, err := BuildCtx(ctx, adv, 1, 0, Config{})
	if err != nil {
		t.Fatalf("n=17 horizon-0 build: %v", err)
	}
	if s.Len() != 1 || s.SymOrder() != 1 || s.FullLen() != 1 {
		t.Fatalf("n=17 base: %d items, group order %d, FullLen %d; want 1, 1, 1", s.Len(), s.SymOrder(), s.FullLen())
	}
}
