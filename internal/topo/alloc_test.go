package topo

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/ma"
)

// TestExtendAllocsPerChild is the allocation-regression pin on the columnar
// frontier expansion: extending a space must cost a bounded number of
// allocations per call — the child columns and the pooled scratch — and
// nothing per extended item. The pre-columnar
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
			// Budget: the fixed per-call allocations (7 column slices,
			// Space + frontier headers, pool scratch) plus strictly less
			// than one quarter allocation per child — i.e. per-child cost
			// must be zero, with headroom only in the fixed part.
			const fixedBudget = 24
			if ceiling := fixedBudget + float64(children)/4; avg > ceiling {
				t.Errorf("extendOne allocations = %.1f for %d children, budget %.1f (per-child cost must stay 0)",
					avg, children, ceiling)
			}
		})
	}
}

// TestExtendBytesPerChild pins the frontier layout: one round allocates
// 4n + 28 bytes per child — the ids column (4n), the letter, parentOf,
// rootOf, state and doneAt columns (4 each) and the stabilizer column (8)
// — plus a fixed part for the headers and the page rounding of the large
// column allocations. A heard column (8n) or any other per-child word
// trips it. The garbage collector is off while it measures, so the pooled
// scratch stays warm, and the least of five rounds counts.
func TestExtendBytesPerChild(t *testing.T) {
	star := advgen.LossyStar4()
	for _, c := range []struct {
		name    string
		sym     *ma.Group
		horizon int
	}{
		{"lossy-star-4", nil, 5},
		{"lossy-star-4/S3", ma.Automorphisms(star), 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			s, err := BuildCtx(ctx, star, 2, c.horizon, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.extendOne(ctx); err != nil { // intern the round's views, fill the pool
				t.Fatal(err)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			least, children := uint64(math.MaxUint64), 0
			for r := 0; r < 5; r++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				next, err := s.extendOne(ctx)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				children = next.Len()
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			const fixed = 64 << 10
			perChild := 4*s.N() + 28
			if budget := uint64(perChild*children + fixed); least > budget {
				t.Errorf("extendOne allocated %d bytes for %d children (%.1f per child), budget %d (%d per child + %d)",
					least, children, float64(least)/float64(children), budget, perChild, fixed)
			}
			t.Logf("%d bytes for %d children: %.1f per child", least, children, float64(least)/float64(children))
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

// TestDecomposeBytesPerRun pins the decomposition's layout: one call
// allocates the union-find — an 8-byte node per run, plus an 8-byte
// stabilizer per run under a nontrivial group — and 9 bytes per run for
// the partition: the int32 CompOf column, the uint8 Labels column and the
// int32 permutation whose windows are the components' Members. A fixed
// part covers the component headers, the per-component summaries and the
// page rounding of the large allocations. The bucket table is pooled, so
// after a warm-up it allocates nothing; a second copy of the partition, a
// per-run root table or any other per-run word trips the budget. The
// garbage collector is off while it measures, so the pooled scratch stays
// warm, and the least of five calls counts.
func TestDecomposeBytesPerRun(t *testing.T) {
	star := advgen.LossyStar4()
	for _, c := range []struct {
		name    string
		sym     *ma.Group
		horizon int
	}{
		{"lossy-star-4", nil, 6},
		{"lossy-star-4/S3xSym(V)", ma.Automorphisms(star), 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			s, err := BuildCtx(ctx, star, 2, c.horizon, Config{Symmetry: c.sym})
			if err != nil {
				t.Fatal(err)
			}
			d, err := DecomposeCtx(ctx, s) // fill the pool
			if err != nil {
				t.Fatal(err)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			least := uint64(math.MaxUint64)
			for r := 0; r < 5; r++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := DecomposeCtx(ctx, s)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			runs := s.Len()
			perRun := 8 + 9
			if s.SymOrder() > 1 {
				perRun += 8
			}
			const fixed = 64 << 10
			if budget := uint64(perRun*runs + fixed); least > budget {
				t.Errorf("DecomposeCtx allocated %d bytes for %d runs (%.1f per run), budget %d (%d per run + %d)",
					least, runs, float64(least)/float64(runs), budget, perRun, fixed)
			}
			t.Logf("%d bytes for %d runs and %d component orbits: %.1f per run",
				least, runs, len(d.Comps), float64(least)/float64(runs))
		})
	}
}
