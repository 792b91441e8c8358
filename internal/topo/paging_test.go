package topo

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	rounds, _ := mustSnapshotChain(t, s)
	for _, cr := range rounds {
		if cr.Bytes > maxPage {
			maxPage = cr.Bytes
		}
	}
	if st := pg.Stats(); st.PeakHotBytes > budget+maxPage {
		t.Fatalf("peak hot bytes %d exceed budget %d + largest page %d", st.PeakHotBytes, budget, maxPage)
	}
}

// TestSnapshottedHeadSpillsWithoutRewrite: the head round a checkpoint
// persisted is registered, not encoded and written again, when the next
// round makes it cold — every page file is written once, and its bytes are
// the ones the checkpoint referenced.
func TestSnapshottedHeadSpillsWithoutRewrite(t *testing.T) {
	ctx := context.Background()
	pg := newTestChainPager(t, 256)
	s, err := BuildCtx(ctx, ma.LossyLink2(), 2, 3, Config{Pager: pg})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rounds, rows := mustSnapshotChain(t, s)
	head, err := os.ReadFile(filepath.Join(pg.Dir(), rounds[2].PageID+".page"))
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.Extend(ctx, 5); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(pg.Dir(), "*.page"))
	if st := pg.Stats(); st.PagesWritten != int64(len(files)) || len(files) != 4 {
		t.Fatalf("%d page files, %d written; want 4 and 4", len(files), st.PagesWritten)
	}
	if size, ok := pg.SizeOf(rounds[2].PageID); !ok || size != rounds[2].Bytes {
		t.Fatalf("head page registered with %d bytes (%v), checkpoint says %d", size, ok, rounds[2].Bytes)
	}
	if again, err := os.ReadFile(filepath.Join(pg.Dir(), rounds[2].PageID+".page")); err != nil || !bytes.Equal(again, head) {
		t.Fatalf("head page file changed after the spill (err %v)", err)
	}
	if got, _ := mustSnapshotChain(t, s); got[2] != rounds[2] {
		t.Fatalf("head round reference %+v after the spill, %+v before", got[2], rounds[2])
	}

	// A resume restores round 3 as its head from the page on disk; its
	// spill registers that page too, so only round 4 is written again.
	pg2, err := pager.New(pager.Config{Dir: pg.Dir(), HotBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg2.QuarantineUnlisted([]string{rounds[0].PageID, rounds[1].PageID, rounds[2].PageID}); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreChain(ChainSpec{
		Adversary: ma.LossyLink2(), InputDomain: 2, Interner: reimport(t, s.Interner), Pager: pg2, Rounds: rounds, RowDigest: rows,
	})
	if err != nil {
		t.Fatalf("RestoreChain: %v", err)
	}
	if _, err := restored.Extend(ctx, 5); err != nil {
		t.Fatalf("Extend after restore: %v", err)
	}
	if st := pg2.Stats(); st.PagesWritten != 1 {
		t.Fatalf("resumed session wrote %d pages, want 1", st.PagesWritten)
	}
	if again, err := os.ReadFile(filepath.Join(pg.Dir(), rounds[2].PageID+".page")); err != nil || !bytes.Equal(again, head) {
		t.Fatalf("head page file changed after the resumed spill (err %v)", err)
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

func mustSnapshotChain(t *testing.T, s *Space) ([]ChainRound, string) {
	t.Helper()
	rounds, rows, err := s.SnapshotChain()
	if err != nil {
		t.Fatalf("SnapshotChain: %v", err)
	}
	return rounds, rows
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
		rounds, rows := mustSnapshotChain(t, s)

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
			RowDigest:   rows,
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
// contract: pages swapped between rounds, or a round that holds another
// number of runs than its parents have children, fail the restore with a
// clean error; they never yield a wrong chain.
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
	rounds, rows := mustSnapshotChain(t, s)
	// Swap two rounds' references: header validation must catch it.
	swapped := append([]ChainRound(nil), rounds...)
	swapped[0].PageID, swapped[1].PageID = swapped[1].PageID, swapped[0].PageID
	in2 := reimport(t, in)
	pg2, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChain(ChainSpec{
		Adversary: adv, InputDomain: 2, Interner: in2, Pager: pg2, Rounds: swapped, RowDigest: rows,
	}); err == nil {
		t.Fatal("RestoreChain accepted swapped round pages")
	}
	// A head round one run short or one run long, its page and its
	// reference agreeing: its parents have another number of children.
	head := s.fr
	for _, delta := range []int{-1, 1} {
		ids := slices.Clone(head.ids)
		if delta < 0 {
			ids = ids[:len(ids)-head.n]
		} else {
			ids = append(ids, ids[len(ids)-head.n:]...)
		}
		resized := &frontier{horizon: head.horizon, n: head.n, count: head.count + delta, ids: ids}
		spec := rewriteChain(t, s, head.horizon, resized.encodeIDs())
		spec.Rounds[head.horizon-1].Count += delta
		spec.Interner = reimport(t, in)
		if _, err := RestoreChain(spec); err == nil || !strings.Contains(err.Error(), "its parents have") {
			t.Errorf("RestoreChain of a head round %+d runs off: %v, want a rejection", delta, err)
		}
	}
}

// TestRestoreChainRejectsForeignRuns pins that a restore checks each
// round's views against the runs replay derives for it. Each case is a
// page with a valid checksum, the round's size and only views of the
// round's depth that the interner handed out, but not what extension
// produces: one process's views traded between two sibling runs, two
// sibling runs traded whole, as a page that lists its runs in another
// order would have them, and two runs that play the same round graph
// from different parents traded whole, whose views have heard the same
// processes. Each must fail the restore instead of resuming a wrong
// chain.
func TestRestoreChainRejectsForeignRuns(t *testing.T) {
	adv := ma.LossyLink2()
	in := ptg.NewInterner()
	s, err := BuildCtx(context.Background(), adv, 2, 3, Config{Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range foreignRuns {
		for _, f := range []*frontier{s.fr.prev.prev, s.fr.prev, s.fr} {
			spec := rewriteChain(t, s, f.horizon, edit(t, f))
			spec.Interner = reimport(t, in)
			_, err := RestoreChain(spec)
			if err == nil || !strings.Contains(err.Error(), "its round graph gives") {
				t.Errorf("%s: RestoreChain of a round-%d page: %v, want a rejection", name, f.horizon, err)
			}
		}
	}
}

// foreignRuns rewrite a round's page into one that decodes but that
// extension of the round's parents does not produce. The first two trade
// views between runs c and c+1 of siblingsApart, the last the rows of the
// two runs of crossParents.
var foreignRuns = map[string]func(testing.TB, *frontier) []byte{
	"cross-parent-swap": func(tb testing.TB, f *frontier) []byte {
		a, b := crossParents(tb, f)
		return editIDs(f, func(ids []ptg.ViewID) {
			row := slices.Clone(ids[a*f.n : (a+1)*f.n])
			copy(ids[a*f.n:], ids[b*f.n:(b+1)*f.n])
			copy(ids[b*f.n:], row)
		})
	},
	"foreign-heard": func(tb testing.TB, f *frontier) []byte {
		c, p := siblingsApart(tb, f)
		return editIDs(f, func(ids []ptg.ViewID) {
			a, b := c*f.n+p, (c+1)*f.n+p
			ids[a], ids[b] = ids[b], ids[a]
		})
	},
	"swapped-siblings": func(tb testing.TB, f *frontier) []byte {
		c, _ := siblingsApart(tb, f)
		return editIDs(f, func(ids []ptg.ViewID) {
			row := slices.Clone(ids[c*f.n : (c+1)*f.n])
			copy(ids[c*f.n:], ids[(c+1)*f.n:(c+2)*f.n])
			copy(ids[(c+1)*f.n:], row)
		})
	},
}

// siblingsApart returns the first run c of round f whose next run is its
// sibling, and a process p whose views in the two runs have heard
// different processes.
func siblingsApart(tb testing.TB, f *frontier) (c, p int) {
	tb.Helper()
	in := f.base.interner
	for c = 0; c+1 < f.count; c++ {
		if f.parentOf[c] != f.parentOf[c+1] {
			continue
		}
		for p = 0; p < f.n; p++ {
			if in.Heard(f.ids[c*f.n+p]) != in.Heard(f.ids[(c+1)*f.n+p]) {
				return c, p
			}
		}
	}
	tb.Fatalf("round %d: no sibling runs whose views heard different processes", f.horizon)
	return 0, 0
}

// crossParents returns two runs a < b of round f that play the same round
// graph from different parents, with different views whose heard masks
// agree process by process — on round 1 of LossyLink2, inputs 00 and 01
// under one graph: swapping their rows keeps every run's heard masks.
func crossParents(tb testing.TB, f *frontier) (a, b int) {
	tb.Helper()
	in := f.base.interner
	for a = 0; a < f.count; a++ {
		for b = a + 1; b < f.count; b++ {
			if f.letter[a] != f.letter[b] || f.parentOf[a] == f.parentOf[b] || slices.Equal(f.idRow(a), f.idRow(b)) {
				continue
			}
			same := true
			for p := 0; p < f.n; p++ {
				same = same && in.Heard(f.ids[a*f.n+p]) == in.Heard(f.ids[b*f.n+p])
			}
			if same {
				return a, b
			}
		}
	}
	tb.Fatalf("round %d: no runs of one graph from different parents whose views heard alike", f.horizon)
	return 0, 0
}

// editIDs returns the page of a copy of round f whose views edit changed.
func editIDs(f *frontier, edit func(ids []ptg.ViewID)) []byte {
	g := &frontier{horizon: f.horizon, n: f.n, count: f.count, ids: slices.Clone(f.ids)}
	edit(g.ids)
	return g.encodeIDs()
}

// rewriteChain persists every round of s's chain into a fresh page
// directory, round target's page replaced by payload, and returns the
// spec of that chain, as a resuming process finds it, without its
// interner: its round references, s's row digest and a fresh pager over
// that directory.
func rewriteChain(tb testing.TB, s *Space, target int, payload []byte) ChainSpec {
	tb.Helper()
	dir := tb.TempDir()
	pg, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	rounds := make([]ChainRound, s.Horizon)
	for f := s.fr; f.horizon > 0; f = f.prev {
		p := payload
		if f.horizon != target {
			if err := f.ensure(); err != nil {
				tb.Fatal(err)
			}
			p = f.encodeIDs()
		}
		id := roundPageID(f.horizon)
		if err := pg.Persist(id, p); err != nil {
			tb.Fatal(err)
		}
		rounds[f.horizon-1] = ChainRound{Horizon: f.horizon, Count: f.count, PageID: id, Bytes: int64(len(p))}
	}
	pg2, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	return ChainSpec{Adversary: s.Adversary, InputDomain: s.InputDomain, Pager: pg2, Rounds: rounds,
		RowDigest: s.rowDigest(), Symmetry: s.sym}
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

// TestDecompSnapshotRoundTrip pins that a checkpoint needs no stored
// decomposition: decomposing a chain restored from its pages and interner
// export (as a resumed session does) reproduces the original's
// decomposition, at the restored head and one round further.
func TestDecompSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		dir := t.TempDir()
		pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		in := ptg.NewInterner()
		s, err := BuildCtx(ctx, adv, 2, 2, Config{Pager: pg, Interner: in})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		rounds, rows := mustSnapshotChain(t, s)
		pg2, err := pager.New(pager.Config{Dir: dir, HotBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreChain(ChainSpec{
			Adversary:   adv,
			InputDomain: 2,
			Interner:    reimport(t, in),
			Pager:       pg2,
			Rounds:      rounds,
			RowDigest:   rows,
		})
		if err != nil {
			t.Fatalf("%s: RestoreChain: %v", adv.Name(), err)
		}
		for _, pair := range [][2]*Space{{s, restored}, {mustExtend(t, s), mustExtend(t, restored)}} {
			want, err := DecomposeCtx(ctx, pair[0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecomposeCtx(ctx, pair[1])
			if err != nil {
				t.Fatalf("%s: DecomposeCtx of the restored chain: %v", adv.Name(), err)
			}
			assertDecompositionsEqual(t, adv.Name(), want, got)
		}
	}
}

// mustExtend extends s by one round.
func mustExtend(t *testing.T, s *Space) *Space {
	t.Helper()
	next, err := s.Extend(context.Background(), s.Horizon+1)
	if err != nil {
		t.Fatalf("%s: Extend to %d: %v", s.Adversary.Name(), s.Horizon+1, err)
	}
	return next
}
