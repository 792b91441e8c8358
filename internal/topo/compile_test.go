package topo

import (
	"context"
	"slices"
	"strings"
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// countingAdversary counts the calls a chain makes into the adversary it
// wraps: Choices per state, Step per (state, graph) and Done per state.
type countingAdversary struct {
	ma.Adversary
	choices map[ma.State]int
	steps   map[stepKey]int
	dones   map[ma.State]int
}

type stepKey struct {
	s ma.State
	g string
}

func newCountingAdversary(adv ma.Adversary) *countingAdversary {
	return &countingAdversary{Adversary: adv, choices: map[ma.State]int{}, steps: map[stepKey]int{}, dones: map[ma.State]int{}}
}

func (c *countingAdversary) Choices(s ma.State) []graph.Graph {
	c.choices[s]++
	return c.Adversary.Choices(s)
}

func (c *countingAdversary) Step(s ma.State, g graph.Graph) ma.State {
	c.steps[stepKey{s, g.Key()}]++
	return c.Adversary.Step(s, g)
}

func (c *countingAdversary) Done(s ma.State) bool {
	c.dones[s]++
	return c.Adversary.Done(s)
}

// assertOncePerChoice fails unless every state was asked for its choices
// and its Done flag at most once, and every choice of a state asked was
// stepped exactly once.
func (c *countingAdversary) assertOncePerChoice(t *testing.T, name string) {
	t.Helper()
	if len(c.choices) == 0 {
		t.Fatalf("%s: Choices was never called", name)
	}
	for s, k := range c.choices {
		if k != 1 {
			t.Errorf("%s: Choices(%v) called %d times", name, s, k)
		}
		for _, g := range c.Adversary.Choices(s) {
			if k := c.steps[stepKey{s, g.Key()}]; k != 1 {
				t.Errorf("%s: Step(%v, %v) called %d times", name, s, g, k)
			}
		}
	}
	for s, k := range c.dones {
		if k != 1 {
			t.Errorf("%s: Done(%v) called %d times", name, s, k)
		}
	}
	steps := 0
	for _, k := range c.steps {
		steps += k
	}
	want := 0
	for s := range c.choices {
		want += len(c.Adversary.Choices(s))
	}
	if steps != want {
		t.Errorf("%s: %d Step calls, want one per choice of an asked state (%d)", name, steps, want)
	}
}

// statefulAdversaries returns adversaries whose automata have several
// states with different choices.
func statefulAdversaries() []ma.Adversary {
	stable := ma.MustEventuallyStable("stable-w1",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	return []ma.Adversary{
		ma.MustDeadlineStable(stable, 2),
		ma.MustWindowStable(ma.LossyLink3(), 2),
	}
}

// TestTableCallsPerChoice pins the compiled adversary's contract with the
// interface: over a session — extension to horizon 5, rehydrating an
// ancestor, materializing runs and items, snapshotting — the chain calls
// Choices and Done once per reached state and Step once per (state,
// choice). A chain restored from the snapshot compiles its own table, with
// the same bound, and replays no state through the interface.
func TestTableCallsPerChoice(t *testing.T) {
	ctx := context.Background()
	for _, base := range statefulAdversaries() {
		adv := newCountingAdversary(base)
		pg := newTestChainPager(t, 1<<10)
		in := ptg.NewInterner()
		s, err := BuildCtx(ctx, adv, 2, 0, Config{Pager: pg, Interner: in})
		if err != nil {
			t.Fatal(err)
		}
		if s, err = s.Extend(ctx, 5); err != nil {
			t.Fatal(err)
		}
		anc, err := s.AncestorAt(2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.Len(); i += 7 {
			s.Item(i)
		}
		for i := 0; i < anc.Len(); i++ {
			anc.RunOf(i)
		}
		rounds, rows := mustSnapshotChain(t, s)
		if len(adv.choices) < 2 {
			t.Fatalf("%s: %d states reached, want a stateful adversary", base.Name(), len(adv.choices))
		}
		adv.assertOncePerChoice(t, base.Name())

		restoredAdv := newCountingAdversary(base)
		pg2, err := pager.New(pager.Config{Dir: pg.Dir(), HotBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreChain(ChainSpec{
			Adversary: restoredAdv, InputDomain: 2, Interner: reimport(t, in), Pager: pg2, Rounds: rounds, RowDigest: rows,
		})
		if err != nil {
			t.Fatalf("%s: RestoreChain: %v", base.Name(), err)
		}
		if _, err := restored.Extend(ctx, 6); err != nil {
			t.Fatal(err)
		}
		restoredAdv.assertOncePerChoice(t, base.Name()+" restored")
	}
}

// respelledAdversary lists the choices of every state but the start state
// in reverse order: the same language, so the same ma.Fingerprint, but
// other rows from round 2 on.
type respelledAdversary struct{ ma.Adversary }

func (r respelledAdversary) Choices(s ma.State) []graph.Graph {
	gs := r.Adversary.Choices(s)
	if s == r.Adversary.Start() {
		return gs
	}
	out := slices.Clone(gs)
	slices.Reverse(out)
	return out
}

// TestRestoreChainRejectsRowDigestMismatch pins that a restore checks the
// chain's compiled rows, not only its pages: an adversary with the
// checkpointed one's fingerprint that lists some state's choices in
// another order must not resume the chain. A horizon-1 chain under a
// respelling of every row but the start state's replays exactly as
// extension built it — the same runs, views and heard masks — so only the
// row digest, which covers the head states' rows too, tells them apart.
func TestRestoreChainRejectsRowDigestMismatch(t *testing.T) {
	for _, adv := range statefulAdversaries() {
		respelled := respelledAdversary{adv}
		if ma.Fingerprint(adv, 4) != ma.Fingerprint(respelled, 4) {
			t.Fatalf("%s: the respelling changes the fingerprint", adv.Name())
		}
		in := ptg.NewInterner()
		s, err := BuildCtx(context.Background(), adv, 2, 1, Config{Interner: in})
		if err != nil {
			t.Fatal(err)
		}
		spec := rewriteChain(t, s, 0, nil) // every round's own page
		spec.Interner = reimport(t, in)
		if _, err := RestoreChain(spec); err != nil {
			t.Fatalf("%s: RestoreChain: %v", adv.Name(), err)
		}
		spec = rewriteChain(t, s, 0, nil)
		spec.Adversary, spec.Interner = respelled, reimport(t, in)
		if _, err := RestoreChain(spec); err == nil || !strings.Contains(err.Error(), "row digest") {
			t.Errorf("%s: RestoreChain under a respelling: %v, want a row digest mismatch", adv.Name(), err)
		}
	}
}
