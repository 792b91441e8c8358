package topo

import (
	"context"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/ma"
)

// TestExtendAllocsPerChild is the allocation-regression pin on the columnar
// frontier expansion: extending a space must cost a bounded number of
// allocations per call — the child columns, the choice layout and the
// pooled scratch — and nothing per extended item. The pre-columnar
// layout allocated a Views clone, two row slices and a Run copy per child
// (≈ 12 allocations each); a reintroduction of any per-child allocation
// trips the budget immediately at 128 children. The quotient case runs the
// orbit-canonical interner and the stabilizer filter on lossy-star-4 under
// its S₃.
func TestExtendAllocsPerChild(t *testing.T) {
	star := advgen.LossyStar4()
	cases := []struct {
		name    string
		adv     ma.Adversary
		sym     *ma.Group
		horizon int
		// children is the expected child count of s, from a source
		// independent of extendOne.
		children func(s *Space) int
	}{
		{"lossylink2", ma.LossyLink2(), nil, 4,
			func(s *Space) int { return 2 * s.Len() }}, // LossyLink2 branches twice per item
		{"lossy-star-4/S3", star, ma.Automorphisms(star), 3,
			func(s *Space) int { return extendOneReference(s).Len() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			s, err := BuildCtx(ctx, c.adv, 2, c.horizon, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			children := c.children(s)
			// Warm up so every child view of the measured rounds is already
			// interned: re-interning is allocation-free, which isolates
			// extendOne's own allocations from the (amortized,
			// first-sight-only) interner growth.
			if _, err := s.extendOne(ctx); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(20, func() {
				next, err := s.extendOne(ctx)
				if err != nil {
					t.Fatalf("extendOne: %v", err)
				}
				if next.Len() != children {
					t.Fatalf("extendOne: %d children, want %d", next.Len(), children)
				}
			})
			// Budget: the fixed per-call allocations (8 column slices,
			// choices + offsets layout, Space + frontier headers, pool
			// scratch) plus strictly less than one quarter allocation per
			// child — i.e. per-child cost must be zero, with headroom only
			// in the fixed part.
			const fixedBudget = 24
			if ceiling := fixedBudget + float64(children)/4; avg > ceiling {
				t.Errorf("extendOne allocations = %.1f for %d children, budget %.1f (per-child cost must stay 0)",
					avg, children, ceiling)
			}
		})
	}
}

// TestDecomposeAllocsBounded pins the columnar bucket scan: decomposing a
// warmed space allocates only the union-find, the component arenas and the
// pooled scratch — nothing per item·process despite the |S|·n view reads.
func TestDecomposeAllocsBounded(t *testing.T) {
	ctx := context.Background()
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := DecomposeCtx(ctx, s) // warm the scratch pool
	if err != nil {
		t.Fatal(err)
	}
	reads := s.Len() * s.N()
	avg := testing.AllocsPerRun(20, func() {
		d, err := DecomposeCtx(ctx, s)
		if err != nil {
			t.Fatalf("DecomposeCtx: %v", err)
		}
		if len(d.Comps) == 0 {
			t.Fatal("DecomposeCtx: no components")
		}
	})
	// The result is O(items + components) slices (union-find, group
	// membership, per-component summary lists); the bucket scan itself must
	// add nothing per view read.
	ceiling := 32 + float64(s.Len())/8 + 4*float64(len(warm.Comps)) + float64(reads)/64
	if avg > ceiling {
		t.Errorf("DecomposeCtx allocations = %.1f for %d view reads and %d components, budget %.1f",
			avg, reads, len(warm.Comps), ceiling)
	}
}
