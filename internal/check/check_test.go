package check

import (
	"context"
	"testing"

	"topocon/internal/combi"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/topo"
)

func mustConsensus(t *testing.T, adv ma.Adversary, opts Options) *Result {
	t.Helper()
	res, err := Consensus(adv, opts)
	if err != nil {
		t.Fatalf("Consensus(%s): %v", adv.Name(), err)
	}
	return res
}

// TestLossyLink2Solvable is E4: {<-,->} is solvable with separation (and
// broadcastability) at horizon 1, and the universal algorithm decides every
// run in round 1 (the paper's Section 6.1 remark on [8]).
func TestLossyLink2Solvable(t *testing.T) {
	res := mustConsensus(t, ma.LossyLink2(), Options{})
	if res.Verdict != VerdictSolvable || !res.Exact {
		t.Fatalf("verdict = %v (exact=%v), want exact solvable", res.Verdict, res.Exact)
	}
	if res.SeparationHorizon != 1 {
		t.Errorf("separation horizon = %d, want 1", res.SeparationHorizon)
	}
	if res.BroadcastHorizon != 1 {
		t.Errorf("broadcast horizon = %d, want 1", res.BroadcastHorizon)
	}
	times, values, err := res.Map.DecisionRounds(res.Space)
	if err != nil {
		t.Fatal(err)
	}
	// DecisionRounds rows enumerate orbit members of the quotiented space.
	m := res.Space.SymOrder()
	for pi := range times {
		run := res.Space.PseudoRun(pi/m, pi%m)
		var agreed = -1
		for p := 0; p < 2; p++ {
			if times[pi][p] < 0 || times[pi][p] > 1 {
				t.Errorf("run %v: process %d decides at %d, want ≤1", run, p+1, times[pi][p])
			}
			if agreed < 0 {
				agreed = values[pi][p]
			} else if agreed != values[pi][p] {
				t.Errorf("run %v: disagreement %v", run, values[pi])
			}
		}
		if v, ok := run.IsValent(); ok && agreed != v {
			t.Errorf("run %v: validity violated, decided %d", run, agreed)
		}
	}
}

// TestLossyLink3Impossible is E3: {<-,<->,->} is certifiably impossible.
func TestLossyLink3Impossible(t *testing.T) {
	res := mustConsensus(t, ma.LossyLink3(), Options{MaxHorizon: 4})
	if res.Verdict != VerdictImpossible || !res.Exact {
		t.Fatalf("verdict = %v (exact=%v), want exact impossible", res.Verdict, res.Exact)
	}
	if res.Certificate == nil {
		t.Fatal("missing certificate")
	}
	if res.SeparationHorizon != -1 {
		t.Errorf("separation horizon = %d, want -1", res.SeparationHorizon)
	}
}

// TestSilentGraphImpossible: any oblivious set containing the silent graph
// is impossible, via the bounded chain certificate.
func TestSilentGraphImpossible(t *testing.T) {
	res := mustConsensus(t, ma.MustOblivious("", graph.Neither, graph.Both), Options{MaxHorizon: 3})
	if res.Verdict != VerdictImpossible || !res.Exact {
		t.Fatalf("verdict = %v (exact=%v), want exact impossible", res.Verdict, res.Exact)
	}
}

// TestObliviousSweepN2Exhaustive is E5: all 15 non-empty subsets of the
// n=2 graphs match the known classification — solvable iff the set omits
// the silent graph and is not the full lossy link {<-,<->,->}.
func TestObliviousSweepN2Exhaustive(t *testing.T) {
	silentIdx := graph.IndexOf(graph.Neither)
	lossy3 := uint64(1)<<graph.IndexOf(graph.Left) |
		uint64(1)<<graph.IndexOf(graph.Right) |
		uint64(1)<<graph.IndexOf(graph.Both)
	combi.Subsets(int(graph.CountAll(2)), func(mask uint64) bool {
		adv := ma.ObliviousFromMask(2, mask)
		res := mustConsensus(t, adv, Options{MaxHorizon: 5})
		wantSolvable := mask&(1<<silentIdx) == 0 && mask != lossy3
		switch {
		case wantSolvable && res.Verdict != VerdictSolvable:
			t.Errorf("%s: verdict %v, want solvable", adv.Name(), res.Verdict)
		case !wantSolvable && res.Verdict != VerdictImpossible:
			t.Errorf("%s: verdict %v, want impossible", adv.Name(), res.Verdict)
		case res.Verdict == VerdictSolvable && res.BroadcastHorizon < 0:
			// Theorem 6.6: separation and broadcastability coincide for
			// compact adversaries.
			t.Errorf("%s: solvable but no broadcast horizon found", adv.Name())
		}
		if !res.Exact {
			t.Errorf("%s: verdict not exact", adv.Name())
		}
		return true
	})
}

// TestSingleGraphAdversaries: every singleton oblivious adversary on n=2
// except the silent one is solvable.
func TestSingleGraphAdversaries(t *testing.T) {
	tests := []struct {
		g        graph.Graph
		solvable bool
	}{
		{graph.Left, true},
		{graph.Right, true},
		{graph.Both, true},
		{graph.Neither, false},
	}
	for _, tt := range tests {
		adv := ma.MustOblivious("", tt.g)
		res := mustConsensus(t, adv, Options{MaxHorizon: 4})
		got := res.Verdict == VerdictSolvable
		if got != tt.solvable {
			t.Errorf("{%s}: verdict %v, want solvable=%v", graph.Arrow(tt.g), res.Verdict, tt.solvable)
		}
	}
}

// TestValenceFreeComponentsDecided: under {<->} every mixed-input run sits
// in a valence-free singleton component; the default assignment must still
// let every process decide (meta-procedure step 3).
func TestValenceFreeComponentsDecided(t *testing.T) {
	res := mustConsensus(t, ma.MustOblivious("", graph.Both), Options{})
	if res.Verdict != VerdictSolvable {
		t.Fatalf("verdict = %v, want solvable", res.Verdict)
	}
	times, values, err := res.Map.DecisionRounds(res.Space)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Space.SymOrder()
	for pi := range times {
		run := res.Space.PseudoRun(pi/m, pi%m)
		for p := 0; p < 2; p++ {
			if times[pi][p] < 0 {
				t.Errorf("run %v: process %d undecided", run, p+1)
			}
		}
		if v, ok := run.IsValent(); ok && values[pi][0] != v {
			t.Errorf("run %v: validity violated", run)
		}
	}
}

// TestNonCompactStableRootSolvable is the heart of E8: the non-compact
// adversary "chaos over {<-,<->}, eventually ->^W" is solvable — the stable
// graph's root process 1 broadcasts in every admissible run (Theorem 6.7 /
// Theorem 5.11).
func TestNonCompactStableRootSolvable(t *testing.T) {
	for _, window := range []int{1, 2} {
		adv := ma.MustEventuallyStable("",
			[]graph.Graph{graph.Left, graph.Both},
			[]graph.Graph{graph.Right}, window)
		res := mustConsensus(t, adv, Options{MaxHorizon: 5})
		if res.Verdict != VerdictSolvable {
			t.Fatalf("window %d: verdict = %v, want solvable (pending undecided: %v)",
				window, res.Verdict, res.PendingUndecided)
		}
		if res.Exact {
			t.Errorf("window %d: non-compact verdict must not claim exactness", window)
		}
		if res.MaxDecisionLatency < 0 {
			t.Errorf("window %d: no latency recorded", window)
		}
	}
}

// TestNonCompactMixtureAtFullHorizon: for the same adversary, the full
// space keeps mixed (pending) components — the reason the compact
// ε-approximation route fails (Section 6.3, Fig. 5).
func TestNonCompactMixtureAtFullHorizon(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both},
		[]graph.Graph{graph.Right}, 1)
	res := mustConsensus(t, adv, Options{MaxHorizon: 4})
	if res.MixedComponents == 0 {
		t.Error("expected mixed components in the non-compact full space")
	}
}

// TestNonCompactTooWeakWindow: an n=3 stable chain graph with window 1
// cannot broadcast (x1 reaches process 2 but never process 3 when chaos
// silences everything else): the checker must refuse solvability evidence.
func TestNonCompactTooWeakWindow(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.New(3)}, // silent chaos
		[]graph.Graph{graph.Chain(3)}, 1)
	res := mustConsensus(t, adv, Options{MaxHorizon: 4, LatencySlack: 2})
	if res.Verdict == VerdictSolvable {
		t.Fatalf("verdict = solvable, want refusal (window too short to broadcast)")
	}
	if !res.PendingUndecided {
		t.Error("expected PendingUndecided evidence")
	}
}

// TestNonCompactSufficientWindow: window 2 of the chain graph broadcasts
// x1 to everyone, making consensus solvable.
func TestNonCompactSufficientWindow(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.New(3)},
		[]graph.Graph{graph.Chain(3)}, 2)
	res := mustConsensus(t, adv, Options{MaxHorizon: 5})
	if res.Verdict != VerdictSolvable {
		t.Fatalf("verdict = %v, want solvable", res.Verdict)
	}
}

// TestDeadlineFamilySeparationGrows is the non-compactness phenomenon of
// Section 6.3: the deadline-R compactifications of an eventually-stable
// adversary are all solvable, but their separation horizons grow with R —
// the decision time of any algorithm is unbounded over the union.
func TestDeadlineFamilySeparationGrows(t *testing.T) {
	inner := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both},
		[]graph.Graph{graph.Right}, 1)
	prev := 0
	for _, deadline := range []int{1, 2, 3} {
		adv := ma.MustDeadlineStable(inner, deadline)
		res := mustConsensus(t, adv, Options{MaxHorizon: 6})
		if res.Verdict != VerdictSolvable || !res.Exact {
			t.Fatalf("deadline %d: verdict %v (exact=%v), want exact solvable",
				deadline, res.Verdict, res.Exact)
		}
		if res.SeparationHorizon < prev {
			t.Errorf("deadline %d: separation horizon %d not monotone (prev %d)",
				deadline, res.SeparationHorizon, prev)
		}
		if res.SeparationHorizon < deadline {
			t.Errorf("deadline %d: separation horizon %d below deadline", deadline, res.SeparationHorizon)
		}
		prev = res.SeparationHorizon
	}
}

// TestDecisionMapAgreementValidityProperties: on every solvable oblivious
// n=2 adversary the compiled universal algorithm satisfies agreement and
// validity on the whole reference space (termination is checked by
// construction of the witness).
func TestDecisionMapAgreementValidityProperties(t *testing.T) {
	combi.Subsets(int(graph.CountAll(2)), func(mask uint64) bool {
		adv := ma.ObliviousFromMask(2, mask)
		res := mustConsensus(t, adv, Options{MaxHorizon: 5})
		if res.Verdict != VerdictSolvable {
			return true
		}
		times, values, err := res.Map.DecisionRounds(res.Space)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Space.SymOrder()
		for pi := range times {
			run := res.Space.PseudoRun(pi/m, pi%m)
			for p := 0; p < 2; p++ {
				if times[pi][p] < 0 {
					t.Errorf("%s: run %v process %d undecided", adv.Name(), run, p+1)
				}
			}
			if values[pi][0] != values[pi][1] {
				t.Errorf("%s: run %v disagreement %v", adv.Name(), run, values[pi])
			}
			if v, ok := run.IsValent(); ok && values[pi][0] != v {
				t.Errorf("%s: run %v validity violated", adv.Name(), run)
			}
		}
		return true
	})
}

// TestDecisionRoundsInternerMismatch: mixing spaces and maps from
// different interners must fail loudly.
func TestDecisionRoundsInternerMismatch(t *testing.T) {
	res := mustConsensus(t, ma.LossyLink2(), Options{})
	other, err := topo.BuildCtx(context.Background(), ma.LossyLink2(), 2, 1, topo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Map.DecisionRounds(other); err == nil {
		t.Error("expected interner mismatch error")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictSolvable.String() != "solvable" ||
		VerdictImpossible.String() != "impossible" ||
		VerdictUnknown.String() != "unknown" {
		t.Error("verdict rendering wrong")
	}
	if Verdict(42).String() == "" {
		t.Error("unknown verdict must still render")
	}
}

// TestCommittedSuffixFamily is E7's quantitative core: the Fevat-Godard
// style committed-suffix family (free over the full lossy link, eventually
// constant <- or ->) is solvable at every deadline R with separation
// horizon exactly R — decision times grow without bound along the family,
// whose non-compact union excludes precisely the fair limit sequences.
func TestCommittedSuffixFamily(t *testing.T) {
	free := []graph.Graph{graph.Left, graph.Right, graph.Both}
	commit := []graph.Graph{graph.Left, graph.Right}
	for _, deadline := range []int{1, 2, 3, 4} {
		adv := ma.MustCommittedSuffix("", free, commit, deadline)
		res := mustConsensus(t, adv, Options{MaxHorizon: 6})
		if res.Verdict != VerdictSolvable || !res.Exact {
			t.Fatalf("deadline %d: verdict %v (exact=%v), want exact solvable",
				deadline, res.Verdict, res.Exact)
		}
		if res.SeparationHorizon != deadline {
			t.Errorf("deadline %d: separation horizon %d, want %d",
				deadline, res.SeparationHorizon, deadline)
		}
	}
}

// TestCrossDecisionLevelStableForCompact is Corollary 6.1 / Fig. 4: the
// decision sets of the fixed universal algorithm for {<-,->} keep distance
// 2^-1 at every horizon, while rebuilding along the committed family
// shrinks the gap as 2^-R (Fig. 5).
func TestCrossDecisionLevelStableForCompact(t *testing.T) {
	res := mustConsensus(t, ma.LossyLink2(), Options{})
	for horizon := 1; horizon <= 4; horizon++ {
		// The map's interner is orbit-canonical under the session's group,
		// so the space must be built under the same group.
		s, err := topo.BuildCtx(context.Background(), ma.LossyLink2(), 2, horizon, topo.Config{
			Interner: res.Map.Interner(),
			Symmetry: ma.Automorphisms(ma.LossyLink2()),
		})
		if err != nil {
			t.Fatal(err)
		}
		level, ok, err := CrossDecisionLevel(res.Map, s)
		if err != nil || !ok {
			t.Fatalf("horizon %d: %v ok=%v", horizon, err, ok)
		}
		if level != 1 {
			t.Errorf("horizon %d: decision-set gap 2^-%d, want 2^-1", horizon, level)
		}
	}
	free := []graph.Graph{graph.Left, graph.Right, graph.Both}
	commit := []graph.Graph{graph.Left, graph.Right}
	for _, deadline := range []int{1, 2, 3} {
		adv := ma.MustCommittedSuffix("", free, commit, deadline)
		res := mustConsensus(t, adv, Options{MaxHorizon: deadline + 1})
		level, ok := res.Map.CrossAssignmentLevel(res.Decomposition)
		if !ok {
			t.Fatalf("deadline %d: no cross pairs", deadline)
		}
		if level != deadline {
			t.Errorf("deadline %d: gap 2^-%d, want 2^-%d", deadline, level, deadline)
		}
	}
}

// TestLargerInputDomain: the checker and map are domain-agnostic: {<-,->}
// with ternary inputs separates at horizon 1 and the map decides all 18
// runs correctly.
func TestLargerInputDomain(t *testing.T) {
	res := mustConsensus(t, ma.LossyLink2(), Options{InputDomain: 3})
	if res.Verdict != VerdictSolvable || res.SeparationHorizon != 1 {
		t.Fatalf("verdict %v separation %d", res.Verdict, res.SeparationHorizon)
	}
	times, values, err := res.Map.DecisionRounds(res.Space)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Space.SymOrder()
	for pi := range times {
		run := res.Space.PseudoRun(pi/m, pi%m)
		if times[pi][0] < 0 || times[pi][1] < 0 {
			t.Errorf("run %v undecided", run)
			continue
		}
		if values[pi][0] != values[pi][1] {
			t.Errorf("run %v disagreement %v", run, values[pi])
		}
		if v, ok := run.IsValent(); ok && values[pi][0] != v {
			t.Errorf("run %v validity violated", run)
		}
	}
}

// TestExclusionAdversaryHonestlyUnknown: removing a single fair word from
// the lossy link leaves no universal broadcaster, so the non-compact
// checker must decline rather than fabricate a verdict (the exact
// machinery for such adversaries lives in package lasso).
func TestExclusionAdversaryHonestlyUnknown(t *testing.T) {
	adv := ma.MustExclusion(ma.LossyLink3(), ma.Repeat(graph.Both))
	res := mustConsensus(t, adv, Options{MaxHorizon: 4})
	if res.Verdict != VerdictUnknown {
		t.Fatalf("verdict %v, want unknown", res.Verdict)
	}
}

// TestUnionAdversaryThroughChecker: the union of the two constant-word
// adversaries behaves exactly like the committed-suffix deadline-1 family.
func TestUnionAdversaryThroughChecker(t *testing.T) {
	u := ma.MustUnion("",
		ma.MustLassoSet("", ma.Repeat(graph.Left)),
		ma.MustLassoSet("", ma.Repeat(graph.Right)))
	res := mustConsensus(t, u, Options{MaxHorizon: 4})
	if res.Verdict != VerdictSolvable || res.SeparationHorizon != 1 {
		t.Errorf("verdict %v separation %d, want solvable at 1", res.Verdict, res.SeparationHorizon)
	}
}

// TestVSSCRootStableVaryingGraphs: a genuinely vertex-stable (but not
// graph-stable) window still enables consensus — the [23] semantics.
func TestVSSCRootStableVaryingGraphs(t *testing.T) {
	// Two stable graphs, both rooted at {1}, different edges; chaos is
	// silent. Window 2 with either graph (or a mix) broadcasts x1.
	sA := graph.Star(3, 0)
	sB := graph.Star(3, 0).AddEdge(1, 2)
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.New(3)}, []graph.Graph{sA, sB}, 2)
	res := mustConsensus(t, adv, Options{MaxHorizon: 4})
	if res.Verdict != VerdictSolvable {
		t.Fatalf("verdict %v, want solvable", res.Verdict)
	}
	if res.Broadcaster != 0 {
		t.Errorf("broadcaster %d, want process 1", res.Broadcaster+1)
	}
}

// TestVSSCMixedRootsUnknown: with stable graphs of different roots, no
// single process broadcasts in every run; the single-broadcaster
// non-compact checker declines honestly.
func TestVSSCMixedRootsUnknown(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.New(3)},
		[]graph.Graph{graph.Star(3, 0), graph.Star(3, 1)}, 1)
	res := mustConsensus(t, adv, Options{MaxHorizon: 4})
	if res.Verdict == VerdictSolvable {
		t.Fatalf("verdict solvable, want a declined verdict (no universal broadcaster)")
	}
}

// TestLossBoundedN4: the thresholds scale to n=4 — f=1 is far below the
// isolation threshold n-1=3 and solvable quickly.
func TestLossBoundedN4(t *testing.T) {
	adv := ma.LossBounded(4, 1)
	res := mustConsensus(t, adv, Options{MaxHorizon: 2, MaxRuns: 4_000_000})
	if res.Verdict != VerdictSolvable {
		t.Fatalf("n=4 f=1: verdict %v, want solvable", res.Verdict)
	}
}

// TestSeparationBroadcastCoincideN2: for every solvable n=2 oblivious
// adversary the separation horizon equals the broadcastability horizon —
// the empirical identity behind Theorem 6.6 observed in E5.
func TestSeparationBroadcastCoincideN2(t *testing.T) {
	for mask := uint64(1); mask < 16; mask++ {
		adv := ma.ObliviousFromMask(2, mask)
		res := mustConsensus(t, adv, Options{MaxHorizon: 5})
		if res.Verdict != VerdictSolvable {
			continue
		}
		if res.SeparationHorizon != res.BroadcastHorizon {
			t.Errorf("%s: separation %d != broadcast %d",
				adv.Name(), res.SeparationHorizon, res.BroadcastHorizon)
		}
	}
}
