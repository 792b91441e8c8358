package check

import (
	"context"
	"encoding/json"
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
	"topocon/internal/topo"
)

func newSessionPager(t *testing.T, dir string, budget int64) *pager.Pager {
	t.Helper()
	pg, err := pager.New(pager.Config{Dir: dir, HotBytes: budget})
	if err != nil {
		t.Fatalf("pager.New: %v", err)
	}
	return pg
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

// sessionSeedAdversaries covers both finalize routes: compact families with
// early and late separation, and a non-compact eventually-stable family.
func sessionSeedAdversaries() []ma.Adversary {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	return []ma.Adversary{
		ma.LossyLink2(),
		ma.LossyLink3(),
		ma.LossBounded(2, 1),
		ma.MustDeadlineStable(stable, 2),
		stable,
	}
}

// TestSessionSnapshotResumeEquivalence is the check-layer kill-and-resume
// contract: snapshot a session mid-run, rebuild it in a "fresh process"
// (imported interner, fresh pager over the same page directory, snapshot
// passed through JSON), finish both, and require identical verdicts and
// identical decision maps — with the resumed session never re-extending an
// already-checkpointed horizon.
func TestSessionSnapshotResumeEquivalence(t *testing.T) {
	const maxHorizon = 4
	const snapAfter = 2
	for _, adv := range sessionSeedAdversaries() {
		// Uninterrupted reference run, no pager, driven exactly like the
		// checkpointed one: snapAfter explicit steps, then Check.
		ref, err := NewAnalyzer(adv, WithMaxHorizon(maxHorizon))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < snapAfter; i++ {
			if _, err := ref.Step(context.Background()); err != nil {
				t.Fatalf("%s: reference step %d: %v", adv.Name(), i+1, err)
			}
		}
		want, err := ref.Check(context.Background())
		if err != nil {
			t.Fatalf("%s: reference Check: %v", adv.Name(), err)
		}

		// Checkpointed run: step to the snapshot point under a pager.
		dir := t.TempDir()
		a, err := NewAnalyzer(adv, WithMaxHorizon(maxHorizon),
			WithPager(newSessionPager(t, dir, 4<<10)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < snapAfter; i++ {
			if _, err := a.Step(context.Background()); err != nil {
				t.Fatalf("%s: step %d: %v", adv.Name(), i+1, err)
			}
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", adv.Name(), err)
		}
		blob, err := a.SpaceAt(a.Horizon()).Interner.Export()
		if err != nil {
			t.Fatalf("%s: Export: %v", adv.Name(), err)
		}

		// "Fresh process": everything below uses only the page directory,
		// the interner blob and the JSON form of the snapshot.
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("%s: marshal snapshot: %v", adv.Name(), err)
		}
		var snap2 SessionSnapshot
		if err := json.Unmarshal(raw, &snap2); err != nil {
			t.Fatalf("%s: unmarshal snapshot: %v", adv.Name(), err)
		}
		in2, err := ptg.ImportInterner(blob)
		if err != nil {
			t.Fatalf("%s: ImportInterner: %v", adv.Name(), err)
		}
		firstResumed := -1
		b, err := RestoreAnalyzer(adv, &snap2, in2, newSessionPager(t, dir, 4<<10),
			WithProgress(func(r HorizonReport) {
				if firstResumed < 0 {
					firstResumed = r.Horizon
				}
			}))
		if err != nil {
			t.Fatalf("%s: RestoreAnalyzer: %v", adv.Name(), err)
		}
		if b.Horizon() != snapAfter {
			t.Fatalf("%s: restored horizon %d, want %d", adv.Name(), b.Horizon(), snapAfter)
		}
		got, err := b.Check(context.Background())
		if err != nil {
			t.Fatalf("%s: resumed Check: %v", adv.Name(), err)
		}
		// Zero re-extension: the first horizon the resumed session analyses
		// is the one right after the checkpoint.
		if firstResumed >= 0 && firstResumed != snapAfter+1 {
			t.Errorf("%s: resumed session re-extended: first analysed horizon %d, want %d",
				adv.Name(), firstResumed, snapAfter+1)
		}

		if got.Verdict != want.Verdict || got.Horizon != want.Horizon ||
			got.SeparationHorizon != want.SeparationHorizon ||
			got.BroadcastHorizon != want.BroadcastHorizon ||
			got.Components != want.Components || got.MixedComponents != want.MixedComponents ||
			got.Broadcaster != want.Broadcaster || got.Exact != want.Exact {
			t.Errorf("%s: resumed result %v@%d sep=%d bcast=%d comps=%d/%d p*=%d differs from uninterrupted %v@%d sep=%d bcast=%d comps=%d/%d p*=%d",
				adv.Name(),
				got.Verdict, got.Horizon, got.SeparationHorizon, got.BroadcastHorizon, got.Components, got.MixedComponents, got.Broadcaster,
				want.Verdict, want.Horizon, want.SeparationHorizon, want.BroadcastHorizon, want.Components, want.MixedComponents, want.Broadcaster)
		}
		assertDecisionMapsEqual(t, adv.Name(), want.Map, got.Map)
	}
}

// assertDecisionMapsEqual compares two compiled maps entry by entry. The
// sequential build order is deterministic, so the independent runs intern
// identical ViewIDs — the comparison doubles as a determinism check.
func assertDecisionMapsEqual(t *testing.T, name string, want, got *DecisionMap) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: decision map nil-ness differs: want %v, got %v", name, want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if want.Size() != got.Size() || want.Reference() != got.Reference() {
		t.Fatalf("%s: decision map shape: want size %d ref %d, got size %d ref %d",
			name, want.Size(), want.Reference(), got.Size(), got.Reference())
	}
	limit := want.Interner().IDBound()
	if l2 := got.Interner().IDBound(); l2 > limit {
		limit = l2
	}
	for id := 0; id < limit; id++ {
		wv, wok := want.Decide(ptg.ViewID(id))
		gv, gok := got.Decide(ptg.ViewID(id))
		if wv != gv || wok != gok {
			t.Fatalf("%s: decision for view %d: want (%d,%v), got (%d,%v)", name, id, wv, wok, gv, gok)
		}
	}
}

// TestSessionSnapshotMidRunPeriodic pins the documented checkpoint hook:
// Snapshot from inside the WithProgress callback at every horizon, resume
// from the deepest one.
func TestSessionSnapshotMidRunPeriodic(t *testing.T) {
	adv := ma.LossyLink3()
	dir := t.TempDir()
	var (
		last    *SessionSnapshot
		lastErr error
		taken   int
	)
	var a *Analyzer
	a, err := NewAnalyzer(adv, WithMaxHorizon(3),
		WithPager(newSessionPager(t, dir, 1)),
		WithProgress(func(HorizonReport) {
			if lastErr != nil {
				return
			}
			if last, lastErr = a.Snapshot(); lastErr == nil {
				taken++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if lastErr != nil {
		t.Fatalf("in-callback Snapshot failed: %v", lastErr)
	}
	if taken != 3 || last.Horizon != 3 {
		t.Fatalf("took %d snapshots, deepest at horizon %d; want 3 at 3", taken, last.Horizon)
	}
	in := reimport(t, a.SpaceAt(3).Interner)
	b, err := RestoreAnalyzer(adv, last, in, newSessionPager(t, dir, 1))
	if err != nil {
		t.Fatalf("RestoreAnalyzer from periodic snapshot: %v", err)
	}
	res, err := b.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictImpossible {
		t.Fatalf("resumed verdict %v, want impossible", res.Verdict)
	}
}

// TestSessionSnapshotErrors pins the guard rails around Snapshot and
// RestoreAnalyzer.
func TestSessionSnapshotErrors(t *testing.T) {
	ctx := context.Background()
	t.Run("no-pager", func(t *testing.T) {
		a, err := NewAnalyzer(ma.LossyLink2(), WithMaxHorizon(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Snapshot(); err == nil {
			t.Error("Snapshot without pager succeeded")
		}
	})
	t.Run("before-first-step", func(t *testing.T) {
		a, err := NewAnalyzer(ma.LossyLink2(), WithMaxHorizon(2),
			WithPager(newSessionPager(t, t.TempDir(), 0)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Snapshot(); err == nil {
			t.Error("Snapshot before first Step succeeded")
		}
	})
	t.Run("after-finished", func(t *testing.T) {
		a, err := NewAnalyzer(ma.LossyLink2(), WithMaxHorizon(2),
			WithPager(newSessionPager(t, t.TempDir(), 0)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Check(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Snapshot(); err == nil {
			t.Error("Snapshot of finished session succeeded")
		}
	})
	t.Run("restore-validation", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewAnalyzer(ma.LossyLink2(), WithMaxHorizon(4),
			WithPager(newSessionPager(t, dir, 0)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := a.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		in := reimport(t, a.SpaceAt(a.Horizon()).Interner)
		pg := newSessionPager(t, dir, 0)
		if _, err := RestoreAnalyzer(ma.LossyLink2(), nil, in, pg); err == nil {
			t.Error("nil snapshot accepted")
		}
		if _, err := RestoreAnalyzer(ma.LossyLink2(), snap, nil, pg); err == nil {
			t.Error("nil interner accepted")
		}
		if _, err := RestoreAnalyzer(ma.LossyLink2(), snap, in, nil); err == nil {
			t.Error("nil pager accepted")
		}
		mangle := func(mutate func(*SessionSnapshot)) *SessionSnapshot {
			c := *snap
			c.Rounds = append([]topo.ChainRound(nil), snap.Rounds...)
			mutate(&c)
			return &c
		}
		cases := map[string]*SessionSnapshot{
			"rounds-mismatch": mangle(func(s *SessionSnapshot) { s.Rounds = s.Rounds[:1] }),
			"sep-beyond":      mangle(func(s *SessionSnapshot) { s.SeparationHorizon = s.Horizon + 1 }),
		}
		for name, bad := range cases {
			if _, err := RestoreAnalyzer(ma.LossyLink2(), bad, in, pg); err == nil {
				t.Errorf("%s: RestoreAnalyzer accepted bad snapshot", name)
			}
		}
	})
}
