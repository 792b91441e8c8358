package check

import (
	"fmt"
	"reflect"
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// TestQuotientMatchesFullSpace is the soundness pin for the symmetry
// quotient (DESIGN.md §13): for every seed adversary family, a session
// analysing the quotiented prefix space and a session analysing the full
// space (Options.NoSymmetry) must be observationally identical — same
// verdict and exactness, same separation and broadcast horizons, same
// component counts, same full-space run totals, and the same compiled
// universal algorithm (size, reference horizon, and per-run decision
// times/values over the whole unquotiented space). The corpus spans the
// quotient's regimes: process groups of order 2 (the lossy links) and
// S₃ on the n=3 loss-bounded family, each paired with the permutations of
// two or three input values, the non-compact route (eventually-stable and
// its deadline compactification), and an asymmetric adversary whose
// trivial process group leaves the value swap alone in the quotient.
func TestQuotientMatchesFullSpace(t *testing.T) {
	stable := ma.MustEventuallyStable("stable-w1",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	asym := ma.MustOblivious("asymmetric{<-,<->}", graph.Left, graph.Both)
	if !ma.Automorphisms(asym).Trivial() {
		t.Fatal("asymmetric corpus member has a non-trivial process group; pick another")
	}
	// groupOrder is the order of the session's whole group, |G|·|V|!.
	cases := []struct {
		adv        ma.Adversary
		domain     int
		maxHorizon int
		groupOrder int
	}{
		{ma.LossyLink2(), 2, 5, 4},
		{ma.LossyLink3(), 2, 5, 4},
		{ma.LossBounded(3, 1), 2, 3, 12}, // n=3: horizon capped like the topo suite
		{stable, 2, 5, 2},
		{ma.MustDeadlineStable(stable, 2), 2, 5, 2},
		{asym, 2, 5, 2},
		{ma.LossyLink2(), 3, 4, 12},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.adv.Name()
		if tc.domain != 2 {
			name = fmt.Sprintf("%s-domain-%d", name, tc.domain)
		}
		t.Run(name, func(t *testing.T) {
			a, err := NewAnalyzer(tc.adv, WithInputDomain(tc.domain))
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Symmetry().Order(); got != tc.groupOrder {
				t.Fatalf("group order = %d, want %d: the corpus no longer exercises this regime", got, tc.groupOrder)
			}
			quot := mustConsensus(t, tc.adv, Options{MaxHorizon: tc.maxHorizon, InputDomain: tc.domain})
			full := mustConsensus(t, tc.adv, Options{MaxHorizon: tc.maxHorizon, InputDomain: tc.domain, NoSymmetry: true})

			if qp, fp := observableProfile(t, quot), observableProfile(t, full); qp != fp {
				t.Errorf("quotient and full sessions diverge:\n  quotient %+v\n  full     %+v", qp, fp)
			}
			if quot.Map != nil {
				qd, fd := decisionProfile(t, quot), decisionProfile(t, full)
				if len(qd) == 0 {
					t.Fatal("solvable quotient session produced an empty decision profile")
				}
				if !reflect.DeepEqual(qd, fd) {
					for run, want := range fd {
						if got, ok := qd[run]; !ok {
							t.Errorf("quotient decides no run %s (full: %s)", run, want)
						} else if got != want {
							t.Errorf("run %s: quotient decides %s, full decides %s", run, got, want)
						}
					}
					for run := range qd {
						if _, ok := fd[run]; !ok {
							t.Errorf("quotient decides phantom run %s absent from the full space", run)
						}
					}
				}
			}
		})
	}
}

// observableProfile flattens a Result to its comparable observables. Space
// sizes are compared as full-space run counts: the quotient session's
// FullLen weights each representative by its orbit, which must reproduce
// the unquotiented session's item count exactly.
func observableProfile(t *testing.T, res *Result) string {
	t.Helper()
	mapSize, mapRef, runs := -1, -1, -1
	if res.Map != nil {
		mapSize, mapRef = res.Map.Size(), res.Map.Reference()
	}
	if res.Space != nil {
		runs = res.Space.FullLen()
	}
	return fmt.Sprintf(
		"verdict=%v exact=%v sep=%d bcast=%d horizon=%d mixed=%d comps=%d mapSize=%d mapRef=%d runs=%d bcaster=%d latency=%d pending=%v notes=%q",
		res.Verdict, res.Exact, res.SeparationHorizon, res.BroadcastHorizon,
		res.Horizon, res.MixedComponents, res.Components,
		mapSize, mapRef, runs,
		res.Broadcaster, res.MaxDecisionLatency, res.PendingUndecided, res.Notes)
}

// decisionProfile runs the compiled universal algorithm over every run of
// the session's reference space — orbit members included — and indexes the
// per-process decision times and values by the run's canonical rendering,
// so profiles from sessions with different interners compare by content.
func decisionProfile(t *testing.T, res *Result) map[string]string {
	t.Helper()
	times, values, err := res.Map.DecisionRounds(res.Space)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Space.SymOrder()
	prof := make(map[string]string, len(times))
	for pi := range times {
		run := res.Space.PseudoRun(pi/m, pi%m)
		key := run.String()
		entry := fmt.Sprintf("t=%v v=%v", times[pi], values[pi])
		if prev, dup := prof[key]; dup && prev != entry {
			t.Errorf("run %s maps to two decision profiles: %s and %s", key, prev, entry)
		}
		prof[key] = entry
	}
	return prof
}
