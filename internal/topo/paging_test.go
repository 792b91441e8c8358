package topo

import (
	"context"
	"testing"

	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

func newTestChainPager(t *testing.T, budget int64) *pager.Pager {
	t.Helper()
	pg, err := pager.New(pager.Config{Dir: t.TempDir(), HotBytes: budget})
	if err != nil {
		t.Fatalf("pager.New: %v", err)
	}
	return pg
}

// TestPagedBuildMatchesUnpaged pins the transparency contract: building
// under a pager with a tiny hot-set budget (so every interior round is
// evicted) yields exactly the space an unpaged build yields, with chain
// walks faulting spilled rounds back in.
func TestPagedBuildMatchesUnpaged(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		// The two-process families run deep under a 1-byte budget (every
		// interior round evicted, every chain walk a fault); the larger
		// families stay shallower with a budget that holds the interior
		// rounds, so the O(items·rounds) comparison walks below don't thrash
		// one page file read per item.
		horizon, budget := 4, int64(64<<10)
		if adv.N() == 2 {
			budget = 1
		} else {
			horizon = 3
		}
		plain, err := BuildCtx(context.Background(), adv, 2, horizon, Config{})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		pg := newTestChainPager(t, budget)
		paged, err := BuildCtx(ctx, adv, 2, horizon, Config{Pager: pg})
		if err != nil {
			t.Fatalf("%s: paged Build: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name(), plain, paged)
		st := pg.Stats()
		if st.PagesWritten == 0 {
			t.Fatalf("%s: paging never engaged: %+v", adv.Name(), st)
		}
		if adv.N() == 2 && (st.PagesSpilled == 0 || st.PagesFaulted == 0) {
			t.Fatalf("%s: tiny budget never spilled/faulted: %+v", adv.Name(), st)
		}
		dPlain, err := DecomposeCtx(ctx, plain)
		if err != nil {
			t.Fatal(err)
		}
		dPaged, err := DecomposeCtx(ctx, paged)
		if err != nil {
			t.Fatal(err)
		}
		assertDecompositionsEqual(t, adv.Name(), dPlain, dPaged)
	}
}

// TestPagedHotBudgetCeiling pins the hot-set policy: the resident payload
// bytes never exceed budget + one page (the most recently touched page is
// never evicted).
func TestPagedHotBudgetCeiling(t *testing.T) {
	const budget = 4 << 10
	pg := newTestChainPager(t, budget)
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 7, Config{Pager: pg})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var maxPage int64
	for _, cr := range mustSnapshotChain(t, s) {
		if cr.Bytes > maxPage {
			maxPage = cr.Bytes
		}
	}
	if st := pg.Stats(); st.PeakHotBytes > budget+maxPage {
		t.Fatalf("peak hot bytes %d exceed budget %d + largest page %d", st.PeakHotBytes, budget, maxPage)
	}
}

// reimport exports the interner and imports the blob into a fresh one, as
// a resuming process does.
func reimport(t *testing.T, in *ptg.Interner) *ptg.Interner {
	t.Helper()
	blob, err := in.Export()
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	in2, err := ptg.ImportInterner(blob)
	if err != nil {
		t.Fatalf("ImportInterner: %v", err)
	}
	return in2
}

func mustSnapshotChain(t *testing.T, s *Space) []ChainRound {
	t.Helper()
	rounds, err := s.SnapshotChain()
	if err != nil {
		t.Fatalf("SnapshotChain: %v", err)
	}
	return rounds
}

// TestSnapshotRestoreChain is the core resume invariant at the topo layer:
// exporting the interner plus the chain pages and restoring them in fresh
// objects (as a new process would) reproduces the space exactly — same
// ViewIDs, same states behaviourally (pinned by extending one more round
// and comparing), with zero re-extension of the checkpointed rounds.
func TestSnapshotRestoreChain(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		horizon, budget := 3, int64(64<<10)
		if adv.N() == 2 {
			budget = 256
		} else {
			horizon = 2
		}
		dir := t.TempDir()
		pg, err := pager.New(pager.Config{Dir: dir, HotBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		in := ptg.NewInterner()
		s, err := BuildCtx(ctx, adv, 2, horizon, Config{Pager: pg, Interner: in})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		rounds := mustSnapshotChain(t, s)

		// "New process": fresh interner, fresh pager over the same dir.
		in2 := reimport(t, in)
		pg2, err := pager.New(pager.Config{Dir: dir, HotBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreChain(ChainSpec{
			Adversary:   adv,
			InputDomain: 2,
			Interner:    in2,
			Pager:       pg2,
			Rounds:      rounds,
		})
		if err != nil {
			t.Fatalf("%s: RestoreChain: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name(), s, restored)
		// Imported interners reproduce IDs, so even the raw view columns
		// must agree.
		for i := 0; i < s.Len(); i++ {
			for p := 0; p < s.N(); p++ {
				if s.ViewAt(i, p) != restored.ViewAt(i, p) {
					t.Fatalf("%s item %d proc %d: view %d vs %d",
						adv.Name(), i, p, s.ViewAt(i, p), restored.ViewAt(i, p))
				}
			}
		}
		// The replayed automaton states must behave identically: extend both
		// one more round and compare.
		sNext, err := s.Extend(ctx, s.Horizon+1)
		if err != nil {
			t.Fatalf("%s: Extend original: %v", adv.Name(), err)
		}
		rNext, err := restored.Extend(ctx, restored.Horizon+1)
		if err != nil {
			t.Fatalf("%s: Extend restored: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name()+" extended", sNext, rNext)
	}
}

// TestRestoreChainRejectsCorruptPages pins the never-a-wrong-resume
// contract: a truncated or bit-flipped page file fails the restore with a
// clean error (and quarantines the page), it never yields a wrong chain.
func TestRestoreChainRejectsCorruptPages(t *testing.T) {
	adv := ma.LossyLink2()
	dir := t.TempDir()
	pg, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	in := ptg.NewInterner()
	s, err := BuildCtx(context.Background(), adv, 2, 3, Config{Pager: pg, Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	rounds := mustSnapshotChain(t, s)
	// Swap two rounds' references: header validation must catch it.
	swapped := append([]ChainRound(nil), rounds...)
	swapped[0].PageID, swapped[1].PageID = swapped[1].PageID, swapped[0].PageID
	in2 := reimport(t, in)
	pg2, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChain(ChainSpec{
		Adversary: adv, InputDomain: 2, Interner: in2, Pager: pg2, Rounds: swapped,
	}); err == nil {
		t.Fatal("RestoreChain accepted swapped round pages")
	}
}

// TestAncestorAt pins SpaceAt-style rehydration: the ancestor view of a
// paged chain equals the space the ancestor horizon's Extend produced.
func TestAncestorAt(t *testing.T) {
	ctx := context.Background()
	adv := ma.LossyLink3()
	pg := newTestChainPager(t, 1)
	in := ptg.NewInterner()
	s1, err := BuildCtx(ctx, adv, 2, 1, Config{Pager: pg, Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := s1.Extend(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	anc, err := s3.AncestorAt(1)
	if err != nil {
		t.Fatalf("AncestorAt: %v", err)
	}
	assertSpacesEqual(t, "ancestor", s1, anc)
	d1, err := DecomposeCtx(ctx, s1)
	if err != nil {
		t.Fatal(err)
	}
	dAnc, err := DecomposeCtx(ctx, anc)
	if err != nil {
		t.Fatal(err)
	}
	assertDecompositionsEqual(t, "ancestor", d1, dAnc)
	if _, err := s3.AncestorAt(4); err == nil {
		t.Fatal("AncestorAt beyond horizon succeeded")
	}
	if got, err := s3.AncestorAt(3); err != nil || got != s3 {
		t.Fatalf("AncestorAt(Horizon) = %v, %v; want receiver", got, err)
	}
}

// TestDecompSnapshotRoundTrip pins that a restored decomposition is
// indistinguishable from the original — including as a Refine parent.
func TestDecompSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		s, err := BuildCtx(context.Background(), adv, 2, 2, Config{})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		d, err := DecomposeCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreDecomposition(s, SnapshotDecomposition(d))
		if err != nil {
			t.Fatalf("%s: RestoreDecomposition: %v", adv.Name(), err)
		}
		assertDecompositionsEqual(t, adv.Name(), d, restored)
		child, err := s.Extend(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		refWant, err := d.Refine(ctx, child)
		if err != nil {
			t.Fatal(err)
		}
		refGot, err := restored.Refine(ctx, child)
		if err != nil {
			t.Fatalf("%s: Refine from restored: %v", adv.Name(), err)
		}
		assertDecompositionsEqual(t, adv.Name()+" refined", refWant, refGot)
	}
}

// TestRestoreDecompositionRejectsBadShapes pins strict validation.
func TestRestoreDecompositionRejectsBadShapes(t *testing.T) {
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := decompose(t, s)
	good := SnapshotDecomposition(d)
	bad := func(mutate func(*DecompSnapshot)) *DecompSnapshot {
		c := &DecompSnapshot{
			Horizon: good.Horizon,
			CompOf:  append([]int(nil), good.CompOf...),
			Comps:   append([]CompSnapshot(nil), good.Comps...),
		}
		mutate(c)
		return c
	}
	cases := map[string]*DecompSnapshot{
		"horizon":     bad(func(c *DecompSnapshot) { c.Horizon++ }),
		"shortCompOf": bad(func(c *DecompSnapshot) { c.CompOf = c.CompOf[:1] }),
		"outOfRange":  bad(func(c *DecompSnapshot) { c.CompOf[0] = len(c.Comps) }),
		"emptyComp":   bad(func(c *DecompSnapshot) { c.Comps = append(c.Comps, CompSnapshot{}) }),
	}
	if len(good.Comps) >= 2 {
		cases["unordered"] = bad(func(c *DecompSnapshot) { c.CompOf[0] = 1 })
	}
	for name, snap := range cases {
		if _, err := RestoreDecomposition(s, snap); err == nil {
			t.Errorf("%s: RestoreDecomposition accepted bad snapshot", name)
		}
	}
}

// TestRestoreDecompositionRejectsBadOrbits pins the validation of an orbit
// decomposition's labels and stabilizers against quotiented spaces:
// lossy-link-2 under its swap, where one item carries a non-identity
// label, and loss-bounded(3,1) under its S₃, where component orbits have
// nontrivial stabilizers. Every label must be a group element in canonical
// form, every stabilizer a subgroup, and the encoding the one
// SnapshotDecomposition writes.
func TestRestoreDecompositionRejectsBadOrbits(t *testing.T) {
	ctx := context.Background()
	snapshot := func(adv ma.Adversary) (*Space, *DecompSnapshot) {
		s, err := BuildCtx(ctx, adv, 2, 2, Config{Symmetry: ma.Automorphisms(adv)})
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecomposeCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		snap := SnapshotDecomposition(d)
		if _, err := RestoreDecomposition(s, snap); err != nil {
			t.Fatalf("%s: good snapshot rejected: %v", adv.Name(), err)
		}
		return s, snap
	}
	mutated := func(good *DecompSnapshot, mutate func(*DecompSnapshot)) *DecompSnapshot {
		c := &DecompSnapshot{
			Horizon: good.Horizon,
			CompOf:  append([]int(nil), good.CompOf...),
			Labels:  append([]uint8(nil), good.Labels...),
			Comps:   append([]CompSnapshot(nil), good.Comps...),
		}
		mutate(c)
		return c
	}
	reject := func(s *Space, cases map[string]*DecompSnapshot) {
		for name, snap := range cases {
			if _, err := RestoreDecomposition(s, snap); err == nil {
				t.Errorf("%s: RestoreDecomposition accepted bad snapshot", name)
			}
		}
	}

	link, linkSnap := snapshot(ma.LossyLink2())
	labeled := -1
	for i, l := range linkSnap.Labels {
		if l != 0 {
			labeled = i
		}
	}
	if labeled < 0 {
		t.Fatal("lossy-link-2: no item carries a non-identity label")
	}
	first := 0
	for linkSnap.CompOf[first] != linkSnap.CompOf[labeled] {
		first++
	}
	reject(link, map[string]*DecompSnapshot{
		"labelOutsideGroup": mutated(linkSnap, func(c *DecompSnapshot) { c.Labels[labeled] = 2 }),
		"shortLabels":       mutated(linkSnap, func(c *DecompSnapshot) { c.Labels = c.Labels[:1] }),
		"identityLabels":    mutated(linkSnap, func(c *DecompSnapshot) { c.Labels = make([]uint8, len(c.Labels)) }),
		"firstMemberLabel":  mutated(linkSnap, func(c *DecompSnapshot) { c.Labels[first] = 1 }),
		// Under the whole group as stabilizer only the identity label is
		// the least of its coset.
		"nonCanonicalLabel": mutated(linkSnap, func(c *DecompSnapshot) { c.Comps[c.CompOf[labeled]].Stab = 0b11 }),
	})

	bounded, boundedSnap := snapshot(ma.LossBounded(3, 1))
	stabbed := -1
	for ci, c := range boundedSnap.Comps {
		if c.Stab != 0 {
			stabbed = ci
		}
	}
	if stabbed < 0 {
		t.Fatal("loss-bounded(3,1): no component orbit has a nontrivial stabilizer")
	}
	notClosed := uint64(1)
	for bounded.Group().IsSubgroup(notClosed) {
		notClosed += 2
	}
	reject(bounded, map[string]*DecompSnapshot{
		"stabWithoutIdentity": mutated(boundedSnap, func(c *DecompSnapshot) { c.Comps[stabbed].Stab &^= 1 }),
		"stabNotClosed":       mutated(boundedSnap, func(c *DecompSnapshot) { c.Comps[stabbed].Stab = notClosed }),
		"stabBeyondGroup":     mutated(boundedSnap, func(c *DecompSnapshot) { c.Comps[stabbed].Stab |= 1 << 6 }),
		"explicitTrivialStab": mutated(boundedSnap, func(c *DecompSnapshot) { c.Comps[0].Stab = 1 }),
		"shortCompOf":         mutated(boundedSnap, func(c *DecompSnapshot) { c.CompOf = c.CompOf[:len(c.CompOf)-1] }),
	})
}
