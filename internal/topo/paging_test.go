package topo

import (
	"bytes"
	"context"
	"encoding/binary"
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
	for _, cr := range mustSnapshotChain(t, s) {
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
	rounds := mustSnapshotChain(t, s)
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
	if got := mustSnapshotChain(t, s); got[2] != rounds[2] {
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
		Adversary: ma.LossyLink2(), InputDomain: 2, Interner: reimport(t, s.Interner), Pager: pg2, Rounds: rounds,
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

// TestRestoreChainRejectsForeignRuns pins that a restore checks each round
// against its parent round as extension built it, not run by run. Each
// case is a page with a valid checksum that keeps the round's size and
// plays only offered graphs, but is not what extension produces: a child
// that repeats its sibling (same graph, same views) in place of another,
// a heard mask its view does not have (rejected when the page is
// decoded), a root that is not its parent's. Each must fail the restore
// instead of resuming a wrong chain.
func TestRestoreChainRejectsForeignRuns(t *testing.T) {
	adv := ma.LossyLink2()
	in := ptg.NewInterner()
	s, err := BuildCtx(context.Background(), adv, 2, 3, Config{Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"duplicate-child": "is not the child extension produces next",
		"foreign-heard":   "heard",
		"foreign-root":    "root",
	} {
		for _, f := range []*frontier{s.fr.prev, s.fr} {
			rounds, pg := rewriteChain(t, s, f.horizon, foreignRuns[name](t, f))
			_, err := RestoreChain(ChainSpec{Adversary: adv, InputDomain: 2, Interner: reimport(t, in), Pager: pg, Rounds: rounds})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: RestoreChain of a round-%d page: %v, want a rejection", name, f.horizon, err)
			}
		}
	}
}

// foreignRuns rewrite a round's page into one that decodes but that
// extension of the round's parents does not produce; runs 0 and 1 must be
// distinct siblings.
var foreignRuns = map[string]func(testing.TB, *frontier) []byte{
	// Run 1 becomes a copy of run 0.
	"duplicate-child": func(tb testing.TB, f *frontier) []byte {
		return editRound(tb, f, func(g *frontier) {
			copy(g.ids[f.n:2*f.n], f.ids[:f.n])
			g.letter[1] = f.letter[0]
		})
	},
	// Process 0 of run 0 hears process 1 or stops hearing it: a round
	// keeps no heard column, so the page's is rewritten byte by byte.
	"foreign-heard": func(tb testing.TB, f *frontier) []byte {
		return editHeard(tb, f, func(heard []uint64) { heard[0] ^= 0b10 })
	},
	// Run 0 claims the next input vector as its root.
	"foreign-root": func(tb testing.TB, f *frontier) []byte {
		return editRound(tb, f, func(g *frontier) { g.rootOf[0] = (f.rootOf[0] + 1) % int32(f.base.count) })
	},
}

// editRound returns the page of a copy of round f that edit changed.
func editRound(tb testing.TB, f *frontier, edit func(*frontier)) []byte {
	tb.Helper()
	if f.parentOf[0] != f.parentOf[1] || f.letter[0] == f.letter[1] {
		tb.Fatalf("round %d: runs 0 and 1 are not distinct siblings", f.horizon)
	}
	g := &frontier{horizon: f.horizon, n: f.n, count: f.count, prev: f.prev, base: f.base,
		ids:      slices.Clone(f.ids),
		letter:   slices.Clone(f.letter),
		parentOf: slices.Clone(f.parentOf),
		rootOf:   slices.Clone(f.rootOf),
	}
	edit(g)
	return g.encodeColumns()
}

// editHeard returns round f's page with its heard column, the count·n
// uvarints after the header and the view IDs, changed by edit.
func editHeard(tb testing.TB, f *frontier, edit func(heard []uint64)) []byte {
	tb.Helper()
	page := f.encodeColumns()
	pos := 0
	next := func() uint64 {
		v, k := binary.Uvarint(page[pos:])
		if k <= 0 {
			tb.Fatalf("round %d: bad uvarint at page offset %d", f.horizon, pos)
		}
		pos += k
		return v
	}
	for i := 0; i < 3+f.count*f.n; i++ { // header, then ids
		next()
	}
	start := pos
	heard := make([]uint64, f.count*f.n)
	for i := range heard {
		heard[i] = next()
	}
	edit(heard)
	out := slices.Clone(page[:start])
	for _, h := range heard {
		out = binary.AppendUvarint(out, h)
	}
	return append(out, page[pos:]...)
}

// rewriteChain persists every round of s's chain into a fresh page
// directory, round target's page replaced by payload, and returns the
// round references and a fresh pager over that directory, as a resuming
// process finds them.
func rewriteChain(tb testing.TB, s *Space, target int, payload []byte) ([]ChainRound, *pager.Pager) {
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
			p = f.encodeColumns()
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
	return rounds, pg2
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
		rounds := mustSnapshotChain(t, s)
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
