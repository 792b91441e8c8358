package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"topocon/internal/check"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

func solve(t *testing.T, adv ma.Adversary, opts check.Options) *check.Result {
	t.Helper()
	res, err := check.Consensus(adv, opts)
	if err != nil {
		t.Fatalf("Consensus(%s): %v", adv.Name(), err)
	}
	if res.Verdict != check.VerdictSolvable {
		t.Fatalf("Consensus(%s) = %v, want solvable", adv.Name(), res.Verdict)
	}
	return res
}

// captureRule wraps a rule and records the view IDs it is shown, keyed by
// (time, proc) — used to cross-validate the locally reconstructed IDs
// against globally computed ones.
type captureRule struct {
	inner check.Rule
	seen  map[[2]int]ptg.ViewID
}

func (c *captureRule) Name() string            { return "capture(" + c.inner.Name() + ")" }
func (c *captureRule) Interner() *ptg.Interner { return c.inner.Interner() }
func (c *captureRule) Decide(v check.View) (int, bool) {
	c.seen[[2]int{v.Time, v.Proc}] = v.ID
	return c.inner.Decide(v)
}

// TestFullInfoViewIDsMatchGlobal: the message-passing process must
// reconstruct exactly the globally-computed hash-consed views — the bridge
// between the executable protocol and the topological analysis.
func TestFullInfoViewIDsMatchGlobal(t *testing.T) {
	res := solve(t, ma.LossyLink2(), check.Options{})
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		run := RandomRun(ma.LossyLink2(), rng, 2, 4)
		capture := &captureRule{inner: res.Rule, seen: make(map[[2]int]ptg.ViewID)}
		// A fresh undecided-forever variant would capture all rounds; the
		// universal rule decides early, so captures stop then. Compare
		// whatever was captured.
		Execute(NewFullInfo(capture), run)
		global := ptg.ComputeViews(res.Map.Interner(), run)
		for key, gotID := range capture.seen {
			tt, p := key[0], key[1]
			if wantID := global.ID(tt, p); gotID != wantID {
				t.Fatalf("run %v: local view ID at (t=%d,p=%d) = %d, global = %d",
					run, tt, p+1, gotID, wantID)
			}
		}
	}
}

// TestUniversalLossyLink2Exhaustive is E9 for the compact case: the
// universal algorithm satisfies (T),(A),(V) on every admissible run and
// decides in round ≤ 1.
func TestUniversalLossyLink2Exhaustive(t *testing.T) {
	res := solve(t, ma.LossyLink2(), check.Options{})
	factory := NewFullInfo(res.Rule)
	count := 0
	Exhaustive(ma.LossyLink2(), factory, 2, 3, func(tr *Trace, _ ma.Prefix) bool {
		count++
		for _, v := range CheckConsensus(tr, true) {
			t.Errorf("violation: %v", v)
		}
		if last := tr.LastDecisionRound(); last > 1 {
			t.Errorf("run %v: decision round %d, want ≤ 1", tr.Run, last)
		}
		return true
	})
	if count != 4*8 {
		t.Errorf("executed %d runs, want 32", count)
	}
}

// TestUniversalSingleGraphExhaustive: {<->} and {<-} solvable adversaries
// run clean through the message-passing simulator.
func TestUniversalSingleGraphExhaustive(t *testing.T) {
	for _, adv := range []*ma.Oblivious{
		ma.MustOblivious("", graph.Both),
		ma.MustOblivious("", graph.Left),
	} {
		res := solve(t, adv, check.Options{})
		Exhaustive(adv, NewFullInfo(res.Rule), 2, 3, func(tr *Trace, _ ma.Prefix) bool {
			for _, v := range CheckConsensus(tr, true) {
				t.Errorf("%s: violation: %v", adv.Name(), v)
			}
			return true
		})
	}
}

// TestBroadcastRuleNonCompact is E9 for the non-compact case: under the
// eventually-stable adversary, the broadcast rule satisfies (T),(A),(V) on
// every admissible prefix whose obligations are discharged, and never
// violates (A),(V) on pending prefixes.
func TestBroadcastRuleNonCompact(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both},
		[]graph.Graph{graph.Right}, 2)
	res := solve(t, adv, check.Options{MaxHorizon: 6})
	if res.Broadcaster != 0 {
		t.Fatalf("broadcaster = %d, want process 1", res.Broadcaster+1)
	}
	factory := NewFullInfo(res.Rule)
	Exhaustive(adv, factory, 2, 5, func(tr *Trace, pfx ma.Prefix) bool {
		requireTermination := pfx.Done && pfx.DoneAt <= 3
		for _, v := range CheckConsensus(tr, requireTermination) {
			t.Errorf("violation (doneAt=%d): %v", pfx.DoneAt, v)
		}
		return true
	})
}

// TestBroadcastRuleLongRandomRuns drives long randomized admissible runs
// through the non-compact universal algorithm.
func TestBroadcastRuleLongRandomRuns(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both},
		[]graph.Graph{graph.Right}, 2)
	res := solve(t, adv, check.Options{MaxHorizon: 6})
	factory := NewFullInfo(res.Rule)
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		run, done := RandomDoneRun(adv, rng, 2, 12, 6)
		if !done {
			t.Fatalf("RandomDoneRun failed to discharge obligations: %v", run)
		}
		tr := Execute(factory, run)
		for _, v := range CheckConsensus(tr, true) {
			t.Errorf("violation: %v", v)
		}
	}
}

// TestFloodMinCorrectWhenStronglyConnected: under {<->} FloodMin deciding
// after round 1 is a correct consensus algorithm.
func TestFloodMinCorrectWhenStronglyConnected(t *testing.T) {
	adv := ma.MustOblivious("", graph.Both)
	Exhaustive(adv, NewFloodMin(1), 2, 3, func(tr *Trace, _ ma.Prefix) bool {
		for _, v := range CheckConsensus(tr, true) {
			t.Errorf("violation: %v", v)
		}
		return true
	})
}

// TestFloodMinViolatesAgreementUnderLossyLink: the combinatorial baseline
// breaks under the lossy link for every decision round within the horizon —
// the contrast experiment to the universal algorithm.
func TestFloodMinViolatesAgreementUnderLossyLink(t *testing.T) {
	for _, decideRound := range []int{1, 2, 3} {
		violated := false
		Exhaustive(ma.LossyLink3(), NewFloodMin(decideRound), 2, decideRound+1,
			func(tr *Trace, _ ma.Prefix) bool {
				if len(CheckConsensus(tr, false)) > 0 {
					violated = true
					return false
				}
				return true
			})
		if !violated {
			t.Errorf("FloodMin(decide@%d) survived the lossy link", decideRound)
		}
	}
}

// TestRandomRunAdmissible: sampled runs are admissible.
func TestRandomRunAdmissible(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left}, []graph.Graph{graph.Right}, 2)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		run := RandomRun(adv, rng, 2, 6)
		if _, ok := ma.Admits(adv, run.Graphs); !ok {
			t.Fatalf("inadmissible sampled run %v", run)
		}
	}
}

// TestExecutePanicsOnDecisionChange: the runner must catch broken
// algorithms.
func TestExecutePanicsOnDecisionChange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Execute did not panic on a decision change")
		}
	}()
	run := ptg.NewRun([]int{0, 1}).Extend(graph.Both).Extend(graph.Both)
	Execute(func() Process { return &fickle{} }, run)
}

// fickle decides its round number — an intentionally broken process.
type fickle struct{ round int }

func (f *fickle) Init(_, _, _ int)      { f.round = 0 }
func (f *fickle) Message() Message      { return nil }
func (f *fickle) Deliver(int, Message)  {}
func (f *fickle) EndRound()             { f.round++ }
func (f *fickle) Decision() (int, bool) { return f.round, true }

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{DecisionRound: []int{2, -1}, Value: []int{1, 0}}
	if tr.Decided() {
		t.Error("Decided must be false with an undecided process")
	}
	if tr.LastDecisionRound() != 2 {
		t.Errorf("LastDecisionRound = %d, want 2", tr.LastDecisionRound())
	}
	v := Violation{Property: "agreement", Detail: "boom"}
	if v.String() != "agreement: boom" {
		t.Errorf("Violation.String = %q", v.String())
	}
}

// TestStrongValidityOnSolvableSweep: the universal algorithm satisfies
// strong validity (decide only actual inputs) on every solvable n=2
// oblivious adversary — the assignment rule picks broadcaster inputs, so
// no out-of-run value can be decided.
func TestStrongValidityOnSolvableSweep(t *testing.T) {
	for mask := uint64(1); mask < 16; mask++ {
		adv := ma.ObliviousFromMask(2, mask)
		res, err := check.Consensus(adv, check.Options{MaxHorizon: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != check.VerdictSolvable {
			continue
		}
		Exhaustive(adv, NewFullInfo(res.Rule), 2, 3, func(tr *Trace, _ ma.Prefix) bool {
			for _, v := range CheckStrongValidity(tr) {
				t.Errorf("%s: %v", adv.Name(), v)
			}
			return true
		})
	}
}

func TestCheckStrongValidityCatchesViolations(t *testing.T) {
	tr := &Trace{
		Run:           ptg.NewRun([]int{0, 1}),
		DecisionRound: []int{1, -1},
		Value:         []int{7, 0},
	}
	if v := CheckStrongValidity(tr); len(v) != 1 {
		t.Errorf("got %d violations, want 1", len(v))
	}
	tr.Value[0] = 1
	if v := CheckStrongValidity(tr); len(v) != 0 {
		t.Errorf("got %v, want none", v)
	}
}

// CheckStrongValidity verifies the strong validity condition the paper
// mentions after Definition 5.1: every decided value must be the input of
// some process in the run.
func CheckStrongValidity(tr *Trace) []Violation {
	inputs := make(map[int]bool, len(tr.Run.Inputs))
	for _, x := range tr.Run.Inputs {
		inputs[x] = true
	}
	var out []Violation
	for p := range tr.DecisionRound {
		if tr.DecisionRound[p] < 0 {
			continue
		}
		if !inputs[tr.Value[p]] {
			out = append(out, Violation{
				Property: "strong-validity",
				Detail: fmt.Sprintf("process %d decided %d, not an input of %v",
					p+1, tr.Value[p], tr.Run),
			})
		}
	}
	return out
}
