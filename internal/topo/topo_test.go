package topo

import (
	"context"
	"slices"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/combi"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

func build(t *testing.T, adv ma.Adversary, domain, horizon int) *Space {
	t.Helper()
	s, err := BuildCtx(context.Background(), adv, domain, horizon, Config{})
	if err != nil {
		t.Fatalf("BuildCtx: %v", err)
	}
	return s
}

// decompose is the from-scratch reference decomposition of s.
func decompose(t testing.TB, s *Space) *Decomposition {
	t.Helper()
	d, err := DecomposeCtx(context.Background(), s)
	if err != nil {
		t.Fatalf("DecomposeCtx: %v", err)
	}
	return d
}

func TestBuildSpaceSize(t *testing.T) {
	s := build(t, ma.LossyLink3(), 2, 2)
	// 2^2 input vectors × 3^2 prefixes.
	if s.Len() != 36 {
		t.Fatalf("Len = %d, want 36", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		it := s.Item(i)
		if it.Run.Rounds() != 2 || it.Views.Rounds() != 2 {
			t.Errorf("item %d has wrong horizon", i)
		}
		if !it.Done {
			t.Errorf("oblivious run %v not Done", it.Run)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildCtx(context.Background(), ma.LossyLink3(), 0, 1, Config{}); err == nil {
		t.Error("domain 0: want error")
	}
	if _, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, -1, Config{}); err == nil {
		t.Error("negative horizon: want error")
	}
	if _, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 5, Config{MaxRuns: 10}); err == nil {
		t.Error("cap exceeded: want error")
	}
}

func TestFindAndValentItems(t *testing.T) {
	s := build(t, ma.LossyLink2(), 2, 1)
	r := ptg.NewRun([]int{0, 1}).Extend(graph.Right)
	if i := s.Find(r); i < 0 || s.RunOf(i).Key() != r.Key() {
		t.Errorf("Find failed for %v", r)
	}
	if i := s.Find(ptg.NewRun([]int{0, 1}).Extend(graph.Both)); i >= 0 {
		t.Error("Find returned an inadmissible run")
	}
	zeros := s.ValentItems(0)
	// (0,0) × {<-,->} = 2 valent runs.
	if len(zeros) != 2 {
		t.Errorf("ValentItems(0) = %v, want 2 items", zeros)
	}
}

// TestLossyLink2SeparatesAtRound1 reproduces the paper's Section 6.1 remark
// on [8]: under {<-,->} all configurations after round 1 are univalent — at
// horizon 1 no component mixes valences, and the expected 4 components
// appear.
func TestLossyLink2SeparatesAtRound1(t *testing.T) {
	s := build(t, ma.LossyLink2(), 2, 1)
	d := decompose(t, s)
	if mixed := d.MixedComponents(); len(mixed) != 0 {
		t.Fatalf("mixed components at horizon 1: %v", mixed)
	}
	if len(d.Comps) != 4 {
		t.Errorf("got %d components, want 4", len(d.Comps))
	}
	if !d.ValentComponentsBroadcastable() {
		t.Error("valent components must be broadcastable for {<-,->}")
	}
}

// TestLossyLink3MixedAtEveryHorizon reproduces the Santoro-Widmayer
// impossibility: under {<-,<->,->} the 0-valent and 1-valent runs stay in
// one connected component at every horizon (the forever-bivalent chain).
func TestLossyLink3MixedAtEveryHorizon(t *testing.T) {
	for horizon := 1; horizon <= 4; horizon++ {
		s := build(t, ma.LossyLink3(), 2, horizon)
		d := decompose(t, s)
		if mixed := d.MixedComponents(); len(mixed) == 0 {
			t.Errorf("horizon %d: no mixed component, expected the bivalent chain", horizon)
		}
		if d.ValentComponentsBroadcastable() {
			t.Errorf("horizon %d: broadcastability must fail", horizon)
		}
	}
}

// TestBroadcastersHaveUniformInputs is Theorem 5.9 at finite resolution: a
// broadcaster of a connected component has the same input in every member.
func TestBroadcastersHaveUniformInputs(t *testing.T) {
	// Sweep all oblivious adversaries over non-empty subsets of the 4
	// two-node graphs.
	combi.Subsets(int(graph.CountAll(2)), func(mask uint64) bool {
		adv := ma.ObliviousFromMask(2, mask)
		s := build(t, adv, 2, 3)
		d := decompose(t, s)
		for ci := range d.Comps {
			c := &d.Comps[ci]
			if c.Broadcasters&^c.UniformInputs != 0 {
				t.Errorf("adversary %s: component %d has broadcaster with non-uniform input",
					adv.Name(), ci)
			}
		}
		return true
	})
}

// TestComponentsRefine: growing the horizon refines the decomposition —
// runs separated at horizon t stay separated at t+1 (projecting runs of
// t+1 onto their t-prefix).
func TestComponentsRefine(t *testing.T) {
	adv := ma.LossyLink3()
	s3 := build(t, adv, 2, 3)
	s4 := build(t, adv, 2, 4)
	d3 := decompose(t, s3)
	d4 := decompose(t, s4)
	for i := 0; i < s4.Len(); i++ {
		for j := i + 1; j < s4.Len(); j++ {
			if d4.CompOf[i] != d4.CompOf[j] {
				continue
			}
			// Same component at horizon 4 ⇒ same at horizon 3.
			ri := truncate(s4.RunOf(i), 3)
			rj := truncate(s4.RunOf(j), 3)
			pi, pj := s3.Find(ri), s3.Find(rj)
			if pi < 0 || pj < 0 {
				t.Fatalf("missing truncated runs %v, %v", ri, rj)
			}
			if d3.CompOf[pi] != d3.CompOf[pj] {
				t.Fatalf("refinement violated: %v ~ %v at t=4 but not t=3",
					s4.RunOf(i), s4.RunOf(j))
			}
		}
	}
}

func truncate(r ptg.Run, rounds int) ptg.Run {
	out := ptg.NewRun(r.Inputs)
	for t := 1; t <= rounds; t++ {
		out = out.Extend(r.Graph(t))
	}
	return out
}

// TestCompactComponentGap is E6 (Fig. 4): for the solvable compact
// adversary {<-,->}, the distance between differently-valent regions stays
// 2^-1 at every horizon — decision sets are uniformly separated.
func TestCompactComponentGap(t *testing.T) {
	for horizon := 1; horizon <= 4; horizon++ {
		s := build(t, ma.LossyLink2(), 2, horizon)
		d := decompose(t, s)
		level, ok := d.CrossValenceLevel()
		if !ok {
			t.Fatalf("horizon %d: no cross-valence pairs", horizon)
		}
		if level != 1 {
			t.Errorf("horizon %d: cross-valence level = %d, want 1 (gap 2^-1)", horizon, level)
		}
	}
}

// TestNonCompactPendingMixture: for the eventually-stable adversary the
// full prefix space keeps a mixed component at every horizon (the
// not-yet-stable runs), even though consensus is solvable — the signature
// of non-compactness that forecloses the ε-approximation route
// (Section 6.3).
func TestNonCompactPendingMixture(t *testing.T) {
	adv := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Right}, []graph.Graph{graph.Both}, 1)
	for horizon := 1; horizon <= 3; horizon++ {
		s := build(t, adv, 2, horizon)
		d := decompose(t, s)
		if mixed := d.MixedComponents(); len(mixed) == 0 {
			t.Errorf("horizon %d: expected a mixed (pending) component", horizon)
		}
	}
}

// TestDecomposeSingletonHorizonZero: at horizon 0 views are the inputs, so
// components group runs by shared input coordinates.
func TestDecomposeSingletonHorizonZero(t *testing.T) {
	s := build(t, ma.LossyLink2(), 2, 0)
	d := decompose(t, s)
	// 4 input vectors; (0,0)~(0,1)~(1,1)~(1,0) all connected through
	// shared coordinates: a single component.
	if len(d.Comps) != 1 {
		t.Errorf("got %d components at horizon 0, want 1", len(d.Comps))
	}
	if !d.Comps[0].Mixed() {
		t.Error("horizon-0 component must be mixed")
	}
}

// TestBroadcastableDiameter is Theorem 5.9: a broadcastable connected
// component has diameter at most 1/2 (agreement level ≥ 1) — the
// broadcaster's input is common to all members, so no member pair can be
// at distance 1.
func TestBroadcastableDiameter(t *testing.T) {
	combi.Subsets(int(graph.CountAll(2)), func(mask uint64) bool {
		adv := ma.ObliviousFromMask(2, mask)
		s := build(t, adv, 2, 3)
		d := decompose(t, s)
		for ci := range d.Comps {
			c := &d.Comps[ci]
			if c.Broadcasters&c.UniformInputs == 0 {
				continue
			}
			level, ok := d.DiameterLevel(ci)
			if !ok {
				continue
			}
			if level < 1 {
				t.Errorf("adversary %s: broadcastable component %d has diameter 2^-%d > 1/2",
					adv.Name(), ci, level)
			}
		}
		return true
	})
}

// TestDecomposeLargerDomain: the machinery is domain-agnostic; with three
// input values the {<-,->} adversary still separates at horizon 1 with one
// component per (deciding process, value).
func TestDecomposeLargerDomain(t *testing.T) {
	s := build(t, ma.LossyLink2(), 3, 1)
	if s.Len() != 9*2 {
		t.Fatalf("space size %d, want 18", s.Len())
	}
	d := decompose(t, s)
	if mixed := d.MixedComponents(); len(mixed) != 0 {
		t.Fatalf("mixed components with domain 3: %v", mixed)
	}
	// 2 graphs × 3 values of the deciding coordinate.
	if len(d.Comps) != 6 {
		t.Errorf("got %d components, want 6", len(d.Comps))
	}
}

// TestSeparationMonotoneQuick: once a horizon separates (no mixed
// component), all larger horizons do as well — the monotonicity that makes
// finite separation witnesses exact.
func TestSeparationMonotoneQuick(t *testing.T) {
	for mask := uint64(1); mask < 16; mask++ {
		adv := ma.ObliviousFromMask(2, mask)
		separated := false
		for horizon := 1; horizon <= 4; horizon++ {
			s := build(t, adv, 2, horizon)
			d := decompose(t, s)
			now := len(d.MixedComponents()) == 0
			if separated && !now {
				t.Fatalf("adversary %s: separation lost at horizon %d", adv.Name(), horizon)
			}
			if now {
				separated = true
			}
		}
	}
}

// TestDecomposeSharedInterner decomposes a head whose views were partly
// stored first by another space on the same interner: a sub-adversary of
// lossy-star-4 is built to the head's horizon between the chain's last two
// rounds, so some head views lie below the range the head's own round
// stored. The bucket table must cover them, and the decomposition must
// equal the one of the same chain on a fresh interner.
func TestDecomposeSharedInterner(t *testing.T) {
	ctx := context.Background()
	star := advgen.LossyStar4()
	sub := ma.MustOblivious("lossy-star-4-leaves", star.Graphs()[1:]...)
	const horizon = 4
	for _, c := range []struct {
		name string
		sym  *ma.Group
	}{
		{"trivial", nil},
		{"S3xSym(V)", ma.Automorphisms(star)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := BuildCtx(ctx, star, 2, horizon-1, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := BuildCtx(ctx, sub, 2, horizon, Config{Symmetry: c.sym, Interner: s.Interner}); err != nil {
				t.Fatal(err)
			}
			if s, err = s.Extend(ctx, horizon); err != nil {
				t.Fatal(err)
			}
			if lo := slices.Min(s.fr.ids); int(lo) >= s.fr.idLo {
				t.Fatalf("least head view %d is the head round's own (from %d): no view stored by the other space", lo, s.fr.idLo)
			}
			fresh, err := BuildCtx(ctx, star, 2, horizon, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			assertDecompositionsEqual(t, c.name, decompose(t, fresh), decompose(t, s))
		})
	}
}
