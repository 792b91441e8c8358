package topo

import (
	"context"
	"testing"

	"topocon/internal/ma"
)

// TestRefineMatchesDecompose is the incremental-decomposition invariant:
// for every seed adversary family, refining the horizon-t partition into
// the one-round extension equals the from-scratch DecomposeCtx of the
// child — same partition, CompOf, component order, valences, broadcasters
// and uniform inputs — with Refine on both the sequential and the
// worker-pool path. The chain starts at the horizon-0 base, as a session
// does, so Refine 0→1 is pinned too.
func TestRefineMatchesDecompose(t *testing.T) {
	ctx := context.Background()
	for _, parallelism := range []int{1, 4} {
		for _, adv := range seedAdversaries(t) {
			maxT := 4
			if adv.N() > 2 {
				maxT = 3
			}
			s, err := BuildCtx(ctx, adv, 2, 0, Config{Parallelism: parallelism})
			if err != nil {
				t.Fatalf("%s: BuildCtx horizon 0: %v", adv.Name(), err)
			}
			d, err := DecomposeCtx(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			for horizon := 1; horizon <= maxT; horizon++ {
				child, err := s.Extend(ctx, horizon)
				if err != nil {
					t.Fatalf("%s: Extend to %d: %v", adv.Name(), horizon, err)
				}
				refined, err := d.Refine(ctx, child)
				if err != nil {
					t.Fatalf("%s: Refine to %d (parallelism %d): %v", adv.Name(), horizon, parallelism, err)
				}
				scratch, err := DecomposeCtx(ctx, child)
				if err != nil {
					t.Fatal(err)
				}
				assertDecompositionsEqual(t, adv.Name(), scratch, refined)
				s, d = child, refined
			}
		}
	}
}

// TestRefineRejectsForeignChild pins the parent-linkage contract: Refine
// refuses spaces that were not produced by a one-round Extend of the
// decomposed space.
func TestRefineRejectsForeignChild(t *testing.T) {
	ctx := context.Background()
	s, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := decompose(t, s)
	// A from-scratch build at the next horizon carries no parent linkage.
	scratch, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refine(ctx, scratch); err == nil {
		t.Error("Refine accepted a from-scratch child")
	}
	// A two-round extension skips the decomposed horizon.
	deep, err := s.Extend(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refine(ctx, deep); err == nil {
		t.Error("Refine accepted a two-round extension")
	}
}

// TestRefineCancellation asserts a cancelled context aborts Refine with
// ctx.Err() — leaving the parent decomposition and the child space intact —
// and that the aborted refinement is resumable: calling Refine again with a
// fresh context yields the exact from-scratch decomposition.
func TestRefineCancellation(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		s, err := BuildCtx(context.Background(), ma.LossyLink3(), 2, 2, Config{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecomposeCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		child, err := s.Extend(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := d.Refine(cancelled, child); err != context.Canceled {
			t.Errorf("parallelism %d: Refine with cancelled context: err = %v, want context.Canceled", parallelism, err)
		}
		// Resume: the inputs are untouched, so a retry must agree with the
		// from-scratch reference.
		refined, err := d.Refine(context.Background(), child)
		if err != nil {
			t.Fatalf("parallelism %d: resumed Refine: %v", parallelism, err)
		}
		assertDecompositionsEqual(t, "lossy3-resume", decompose(t, child), refined)
	}
}
