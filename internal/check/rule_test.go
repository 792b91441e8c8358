package check

import (
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

func TestMapRuleRoundTrip(t *testing.T) {
	res := mustConsensus(t, ma.LossyLink2(), Options{})
	rule := &MapRule{Map: res.Map}
	if rule.Name() != "universal-map" {
		t.Errorf("Name = %q", rule.Name())
	}
	if rule.Interner() != res.Map.Interner() {
		t.Error("Interner mismatch")
	}
	if res.Map.Adversary().Name() != ma.LossyLink2().Name() {
		t.Errorf("Adversary = %q", res.Map.Adversary().Name())
	}
	if res.Map.Reference() != 1 {
		t.Errorf("Reference = %d, want 1", res.Map.Reference())
	}
	if res.Map.Size() == 0 {
		t.Error("empty decision map")
	}
	// Evaluate the rule on a concrete run: both processes decide 1 at
	// round 1 of ((1,1), ->).
	run := ptg.NewRun([]int{1, 1}).Extend(graph.Right)
	views := ptg.ComputeViews(res.Map.Interner(), run)
	for p := 0; p < 2; p++ {
		v, ok := rule.Decide(ViewOf(run, views, 1, p))
		if !ok || v != 1 {
			t.Errorf("process %d: Decide = (%d,%v), want (1,true)", p+1, v, ok)
		}
	}
	// Beyond the reference horizon the map is silent.
	long := run.Extend(graph.Right).Extend(graph.Right)
	lviews := ptg.ComputeViews(res.Map.Interner(), long)
	if _, ok := rule.Decide(ViewOf(long, lviews, 3, 0)); ok {
		t.Error("decision beyond the reference horizon")
	}
	// NoViewID views cannot decide.
	if _, ok := rule.Decide(NewView(1, 0, NoViewID, 1, []int{1, 1})); ok {
		t.Error("decision on NoViewID view")
	}
}

func TestBroadcastRuleDirect(t *testing.T) {
	rule := &BroadcastRule{Broadcaster: 1}
	if rule.Name() == "" || rule.Interner() != nil {
		t.Error("unexpected BroadcastRule identity")
	}
	// Heard process 2 (bit 1): decide its input.
	v := NewView(3, 0, NoViewID, 0b10, []int{7, 9})
	if got, ok := rule.Decide(v); !ok || got != 9 {
		t.Errorf("Decide = (%d,%v), want (9,true)", got, ok)
	}
	// Not heard: no decision.
	v2 := NewView(3, 0, NoViewID, 0b01, []int{7, 9})
	if _, ok := rule.Decide(v2); ok {
		t.Error("decision without having heard the broadcaster")
	}
}

func TestViewInputGating(t *testing.T) {
	v := NewView(0, 0, NoViewID, 0b01, []int{5, 6})
	if x, ok := v.Input(0); !ok || x != 5 {
		t.Errorf("Input(0) = (%d,%v)", x, ok)
	}
	if _, ok := v.Input(1); ok {
		t.Error("unheard input leaked")
	}
	if _, ok := v.Input(9); ok {
		t.Error("out-of-range input leaked")
	}
}

// TestComponentValueAccessor requires every component of a solvable
// instance to be assigned a value, on the default quotiented session and
// on the full decomposition. Only the latter must list both values: under
// the quotient by value permutations the 1-valued components are twins of
// 0-valued base components.
func TestComponentValueAccessor(t *testing.T) {
	for _, noSym := range []bool{false, true} {
		res := mustConsensus(t, ma.LossyLink2(), Options{NoSymmetry: noSym})
		seen := map[int]bool{}
		for ci := range res.Decomposition.Comps {
			v := res.Map.ComponentValue(ci)
			if v < 0 {
				t.Errorf("NoSymmetry=%v: component %d unassigned in a solvable instance", noSym, ci)
			}
			seen[v] = true
		}
		if noSym && (!seen[0] || !seen[1]) {
			t.Errorf("assignments %v, want both values", seen)
		}
	}
}
