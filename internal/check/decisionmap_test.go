package check

import (
	"context"
	"slices"
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/topo"
)

// TestValenceFreeValuesTwinByTwin pins the two regimes of a valence-free
// component's assignment under a group with a value part. Without a
// uniform broadcaster every twin takes the default value, which a value
// permutation does not carry along, so the twins are listed one by one;
// with one, the twin's broadcaster holds the permuted input, so the
// assignment is equivariant and no list is kept.
func TestValenceFreeValuesTwinByTwin(t *testing.T) {
	adv := ma.MustOblivious("asymmetric{<-,<->}", graph.Left, graph.Both)
	for _, domain := range []int{2, 3} {
		s, err := topo.BuildCtx(context.Background(), adv, domain, 0, topo.Config{Symmetry: ma.Automorphisms(adv)})
		if err != nil {
			t.Fatal(err)
		}
		grp := s.SymGroup()
		if grp.Domain() != domain || grp.Order() < 2 {
			t.Fatalf("domain %d: the session's group has order %d over domain %d, want a value part", domain, grp.Order(), grp.Domain())
		}
		inputs := []int{1, 0}
		for _, def := range []int{0, 1} {
			c := &topo.Component{Stab: 1}
			base, twins := valenceFreeValues(s, c, inputs, def)
			if base != def || len(twins) != grp.Order() {
				t.Fatalf("domain %d, default %d: no broadcaster gives base %d and %d twin values, want %d and %d",
					domain, def, base, len(twins), def, grp.Order())
			}
			for g, v := range twins {
				if v != def {
					t.Errorf("domain %d, default %d: twin %d takes %d, want the default", domain, def, g, v)
				}
			}
		}
		// Process 1 (bit 0) is a uniform broadcaster holding input 1: the
		// twin (σ, π) of the component assigns π(1), its base's image.
		c := &topo.Component{Stab: 1, Broadcasters: 0b01, UniformInputs: 0b11}
		if base, twins := valenceFreeValues(s, c, inputs, 0); base != 1 || twins != nil {
			t.Errorf("domain %d: a uniform broadcaster gives base %d and twin values %v, want 1 and none", domain, base, twins)
		}
	}
}

// TestFixesValue: a stored cone decides u only when every element of its
// stabilizer fixes u, so an element whose value part moves u must make
// fixesValue fail even when it fixes other values.
func TestFixesValue(t *testing.T) {
	adv := ma.MustOblivious("asymmetric{<-,<->}", graph.Left, graph.Both)
	grp := ma.Automorphisms(adv).OnDomain(3)
	if grp.Domain() != 3 {
		t.Fatalf("group over domain %d, want 3", grp.Domain())
	}
	swap12 := -1 // the element fixing value 0 and swapping 1 and 2
	for k := 0; k < grp.Order(); k++ {
		if slices.Equal(grp.Values(k), []int{0, 2, 1}) && slices.Equal(grp.Elem(k), grp.Elem(0)) {
			swap12 = k
		}
	}
	if swap12 < 0 {
		t.Fatal("no element (id, (1 2)) in the group")
	}
	stab := uint64(1) | 1<<uint(swap12)
	for u, want := range []bool{true, false, false} {
		if got := fixesValue(grp, stab, u); got != want {
			t.Errorf("fixesValue(stab {id, (1 2)}, %d) = %v, want %v", u, got, want)
		}
		if !fixesValue(grp, 1, u) {
			t.Errorf("fixesValue(stab {id}, %d) = false, want true", u)
		}
	}
	if !fixesValue(ma.TrivialGroup(2), 1, 1) {
		t.Error("fixesValue under a group without a value part = false, want true")
	}
}
