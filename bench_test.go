package topocon_test

// One benchmark per experiment of EXPERIMENTS.md (E1–E10) plus ablation
// benches for the design choices called out in DESIGN.md. The benchmarks
// measure the cost of regenerating each figure/claim; correctness is
// asserted so a regression cannot silently pass as a fast benchmark.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"topocon"
	"topocon/internal/advgen"
	"topocon/internal/check"
	"topocon/internal/ckpt"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
	"topocon/internal/topo"
)

// BenchmarkE1_PTGraphViews builds the Figure-2 process-time graph and
// extracts a view.
func BenchmarkE1_PTGraphViews(b *testing.B) {
	g1 := topocon.MustParseGraph(3, "1->2, 3->2")
	g2 := topocon.MustParseGraph(3, "2->1, 2->3")
	run := topocon.NewRun([]int{1, 0, 1}).Extend(g1).Extend(g2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cone := topocon.ConeOf(run, 0, 2)
		if cone.Size() != 6 {
			b.Fatalf("cone size %d", cone.Size())
		}
	}
}

// BenchmarkE2_Distances computes the Figure-3 distances.
func BenchmarkE2_Distances(b *testing.B) {
	g1 := topocon.MustParseGraph(3, "3->2")
	g2 := topocon.MustParseGraph(3, "2->1")
	alpha := topocon.NewRun([]int{0, 0, 0}).Extend(g1).Extend(g2)
	beta := topocon.NewRun([]int{0, 0, 1}).Extend(g1).Extend(g2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := topocon.NewInterner()
		va := topocon.ComputeViews(in, alpha)
		vb := topocon.ComputeViews(in, beta)
		if topocon.MinAgreeLevel(va, vb) != 2 {
			b.Fatal("wrong d_min")
		}
	}
}

// BenchmarkE3_LossyLink3 regenerates the impossibility verdict with its
// pump certificate.
func BenchmarkE3_LossyLink3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := topocon.CheckConsensus(topocon.LossyLink3(), topocon.CheckOptions{MaxHorizon: 4})
		if err != nil || res.Verdict != topocon.VerdictImpossible {
			b.Fatalf("verdict %v err %v", res.Verdict, err)
		}
	}
}

// BenchmarkE4_LossyLink2 regenerates the one-round solvability witness.
func BenchmarkE4_LossyLink2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := topocon.CheckConsensus(topocon.LossyLink2(), topocon.CheckOptions{})
		if err != nil || res.SeparationHorizon != 1 {
			b.Fatalf("separation %d err %v", res.SeparationHorizon, err)
		}
	}
}

// BenchmarkE5_ObliviousSweep checks all 15 n=2 oblivious adversaries.
func BenchmarkE5_ObliviousSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		solvable := 0
		for mask := uint64(1); mask < 16; mask++ {
			adv := ma.ObliviousFromMask(2, mask)
			res, err := topocon.CheckConsensus(adv, topocon.CheckOptions{MaxHorizon: 5})
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict == topocon.VerdictSolvable {
				solvable++
			}
		}
		if solvable != 6 {
			b.Fatalf("solvable count %d, want 6", solvable)
		}
	}
}

// BenchmarkE6_ComponentGap measures the fixed-algorithm decision-set gap
// at horizon 5.
func BenchmarkE6_ComponentGap(b *testing.B) {
	res, err := topocon.CheckConsensus(topocon.LossyLink2(), topocon.CheckOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// The map's interner is orbit-canonical under the session's group,
		// so the space must be built under the same group.
		s, err := topocon.BuildSpaceCtx(context.Background(), topocon.LossyLink2(), 2, 5, topocon.SpaceConfig{
			Interner: res.Map.Interner(),
			Symmetry: topocon.Automorphisms(topocon.LossyLink2()),
		})
		if err != nil {
			b.Fatal(err)
		}
		level, ok, err := topocon.CrossDecisionLevel(res.Map, s)
		if err != nil || !ok || level != 1 {
			b.Fatalf("gap level %d ok=%v err=%v", level, ok, err)
		}
	}
}

// BenchmarkE7_FairExclusion runs the committed-suffix family plus the
// exact lasso convergence to the fair limit.
func BenchmarkE7_FairExclusion(b *testing.B) {
	free := []topocon.Graph{topocon.LeftGraph, topocon.RightGraph, topocon.BothGraph}
	commit := []topocon.Graph{topocon.LeftGraph, topocon.RightGraph}
	fair, _ := topocon.NewLassoRun([]int{0, 1}, topocon.RepeatWord(topocon.BothGraph))
	for i := 0; i < b.N; i++ {
		for _, deadline := range []int{1, 2, 3} {
			adv := mustCommitted(b, free, commit, deadline)
			res, err := topocon.CheckConsensus(adv, topocon.CheckOptions{MaxHorizon: 5})
			if err != nil || res.SeparationHorizon != deadline {
				b.Fatalf("deadline %d: separation %d err %v", deadline, res.SeparationHorizon, err)
			}
		}
		prefix := []topocon.Graph{topocon.BothGraph, topocon.BothGraph, topocon.BothGraph}
		w, _ := topocon.NewGraphWord(prefix, []topocon.Graph{topocon.RightGraph})
		ak, _ := topocon.NewLassoRun([]int{0, 1}, w)
		if topocon.LassoMinAgreeLevel(ak, fair) != 5 {
			b.Fatal("wrong convergence level")
		}
	}
}

// BenchmarkE8_VSSC sweeps the eventually-stable window and deadline
// families.
func BenchmarkE8_VSSC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, window := range []int{1, 2} {
			adv := mustStable(b,
				[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph},
				[]topocon.Graph{topocon.RightGraph}, window)
			res, err := topocon.CheckConsensus(adv, topocon.CheckOptions{MaxHorizon: 5})
			if err != nil || res.Verdict != topocon.VerdictSolvable {
				b.Fatalf("window %d: %v err %v", window, res.Verdict, err)
			}
		}
	}
}

// BenchmarkE9_Universal drives the universal algorithm through the
// message-passing simulator exhaustively.
func BenchmarkE9_Universal(b *testing.B) {
	res, err := topocon.CheckConsensus(topocon.LossyLink2(), topocon.CheckOptions{})
	if err != nil {
		b.Fatal(err)
	}
	factory := topocon.NewFullInfo(res.Rule)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		violations := 0
		topocon.ExhaustiveSim(topocon.LossyLink2(), factory, 2, 4,
			func(tr *topocon.Trace, _ ma.Prefix) bool {
				violations += len(topocon.CheckProperties(tr, true))
				return true
			})
		if violations != 0 {
			b.Fatalf("%d violations", violations)
		}
	}
}

// BenchmarkE10_LassoExact applies the exact Corollary 5.6 checker.
func BenchmarkE10_LassoExact(b *testing.B) {
	words := []topocon.GraphWord{
		topocon.RepeatWord(topocon.LeftGraph),
		topocon.RepeatWord(topocon.RightGraph),
		topocon.RepeatWord(topocon.NeitherGraph),
	}
	for i := 0; i < b.N; i++ {
		a, err := topocon.AnalyzeFinite(words, 2)
		if err != nil || a.Solvable {
			b.Fatalf("solvable=%v err=%v", a.Solvable, err)
		}
	}
}

// BenchmarkAblationInternedViews contrasts the hash-consed view comparison
// (the design choice of internal/ptg) against explicit cone encoding.
func BenchmarkAblationInternedViews(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	runs := randomRuns(rng, 64, 3, 4)
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := topocon.NewInterner()
			equal := 0
			views := make([]*topocon.Views, len(runs))
			for j, r := range runs {
				views[j] = topocon.ComputeViews(in, r)
			}
			for j := range runs {
				for k := j + 1; k < len(runs); k++ {
					if views[j].ID(4, 0) == views[k].ID(4, 0) {
						equal++
					}
				}
			}
			sinkInt = equal
		}
	})
	b.Run("explicit-cones", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			equal := 0
			encs := make([]string, len(runs))
			for j, r := range runs {
				encs[j] = topocon.ConeOf(r, 0, 4).Encode()
			}
			for j := range runs {
				for k := j + 1; k < len(runs); k++ {
					if encs[j] == encs[k] {
						equal++
					}
				}
			}
			sinkInt = equal
		}
	})
}

// BenchmarkAblationComponents contrasts union-find component computation
// against a BFS over the indistinguishability relation.
func BenchmarkAblationComponents(b *testing.B) {
	s, err := topocon.BuildSpaceCtx(context.Background(), topocon.LossyLink3(), 2, 5, topocon.SpaceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("union-find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := topocon.DecomposeCtx(context.Background(), s)
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = len(d.Comps)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt = bfsComponents(s)
		}
	})
}

// BenchmarkAblationSpaceBuild measures prefix-space construction cost per
// horizon (the dominating factor of every checker run).
func BenchmarkAblationSpaceBuild(b *testing.B) {
	for _, horizon := range []int{3, 5, 7} {
		b.Run(map[int]string{3: "horizon3", 5: "horizon5", 7: "horizon7"}[horizon],
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := topocon.BuildSpaceCtx(context.Background(), topocon.LossyLink3(), 2, horizon, topocon.SpaceConfig{})
					if err != nil {
						b.Fatal(err)
					}
					sinkInt = s.Len()
				}
			})
	}
}

// benchMaxHorizon is the horizon depth of the incremental-vs-scratch pair
// below; both walk every horizon 1..benchMaxHorizon of LossyLink2 and
// decompose each, so the only difference is how the next space is obtained.
const benchMaxHorizon = 7

// BenchmarkBuildFromScratch is the pre-session checker loop: every horizon
// builds its prefix space independently — with a fresh interner, so every
// view of every horizon is re-interned from nothing — and decomposes it
// from scratch.
func BenchmarkBuildFromScratch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for horizon := 1; horizon <= benchMaxHorizon; horizon++ {
			s, err := topocon.BuildSpaceCtx(context.Background(), topocon.LossyLink2(), 2, horizon, topocon.SpaceConfig{})
			if err != nil {
				b.Fatal(err)
			}
			d, err := topocon.DecomposeCtx(context.Background(), s)
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = len(d.Comps)
		}
	}
}

// BenchmarkAnalyzerIncremental is the session path: one Analyzer extends
// the columnar frontier round by round — computing a single new view row
// per run straight into the child space's dense columns — and refines each
// horizon's decomposition from the previous partition. Track the ratio to
// BenchmarkBuildFromScratch in the perf trajectory (BENCH_PR4.json records
// it per PR); the columnar-layout acceptance floor against the PR 3
// array-of-structs baseline (1.16 ms/op, 12908 allocs/op ≈ 12.7 per
// extended item on this workload) is 2× wall and 4× allocs per item.
func BenchmarkAnalyzerIncremental(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		an, err := topocon.NewAnalyzer(topocon.LossyLink2(), topocon.WithMaxHorizon(benchMaxHorizon))
		if err != nil {
			b.Fatal(err)
		}
		for {
			rep, err := an.Step(ctx)
			if errors.Is(err, topocon.ErrHorizonExhausted) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = rep.Components
		}
		if an.Horizon() != benchMaxHorizon {
			b.Fatalf("stopped at horizon %d", an.Horizon())
		}
	}
}

// BenchmarkExtendColumnar isolates the frontier-expansion cost of the
// columnar layout: a fresh horizon-1 space (fresh interner) is extended to
// benchMaxHorizon with no decomposition, so ns/op and allocs/op measure
// extendOne alone — the loop the structure-of-arrays rework targets. The
// extended-item count per iteration is Σ_{t=2..7} 4·2^t = 1008, putting the
// per-item allocation cost in direct view.
func BenchmarkExtendColumnar(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		s, err := topocon.BuildSpaceCtx(ctx, topocon.LossyLink2(), 2, 1, topocon.SpaceConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if s, err = s.Extend(ctx, benchMaxHorizon); err != nil {
			b.Fatal(err)
		}
		if s.Len() != 4*1<<benchMaxHorizon {
			b.Fatalf("space size %d", s.Len())
		}
		sinkInt = s.Len()
	}
}

// BenchmarkExtendPaged measures the BenchmarkAnalyzerIncremental horizon
// walk with the frontier paged under a small hot-set budget (384 bytes —
// about four fifths of the 488 bytes of pages that rounds 1–6 write under
// the symmetry quotient of LossyLink2, its process swap paired with the
// swap of the input values, order 4): cold rounds spill to
// page files and fault back on demand, so the delta against the
// incremental bench is the page-IO overhead of out-of-core extension. Each
// iteration gets a fresh page directory so spills are never served by
// files a previous iteration wrote.
func BenchmarkExtendPaged(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		pg, err := topocon.NewPager(topocon.PagerConfig{
			Dir:      b.TempDir(), // fresh per iteration: spills must write, not skip
			HotBytes: 384,
		})
		if err != nil {
			b.Fatal(err)
		}
		an, err := topocon.NewAnalyzer(topocon.LossyLink2(),
			topocon.WithMaxHorizon(benchMaxHorizon), topocon.WithPager(pg))
		if err != nil {
			b.Fatal(err)
		}
		for {
			rep, err := an.Step(ctx)
			if errors.Is(err, topocon.ErrHorizonExhausted) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			sinkInt = rep.Components
		}
		if an.Horizon() != benchMaxHorizon {
			b.Fatalf("stopped at horizon %d", an.Horizon())
		}
		st := pg.Stats()
		if st.PagesSpilled == 0 {
			b.Fatal("budget never forced a spill; the bench is not measuring paging")
		}
	}
}

// BenchmarkCheckpointSave times ckpt.Save alone on the star-durable shape:
// lossy-star-4 without the symmetry quotient, analysed to horizon 6 (65,536
// runs) under a 256 KiB pager outside the timer. Every iteration saves the
// same session again, so it pays what a periodic checkpoint pays: encoding
// the resident head round (its page file is kept once written), exporting
// the whole interner and writing the blob and the manifest.
func BenchmarkCheckpointSave(b *testing.B) {
	const horizon = 6
	ctx := context.Background()
	dir := b.TempDir()
	pg, err := ckpt.Fresh(dir, 256<<10)
	if err != nil {
		b.Fatal(err)
	}
	an, err := check.NewAnalyzer(advgen.LossyStar4(),
		check.WithOptions(check.Options{MaxHorizon: horizon, NoSymmetry: true}), check.WithPager(pg))
	if err != nil {
		b.Fatal(err)
	}
	for an.Horizon() < horizon {
		if _, err := an.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ckpt.Save(dir, an); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreChain times topo.RestoreChain alone on the star-durable
// shape: lossy-star-4 without the symmetry quotient, extended to horizon 6
// (65,536 runs) under a 256 KiB pager and snapshotted outside the timer.
// Every iteration restores the chain from its pages with a fresh pager over
// the same directory, as a resuming process does: each page of views is
// read and validated, every run's links and automaton state are derived
// from its parent's state, and every view is checked to be the one its
// round graph gives over its parent's views (an interner lookup that
// stores nothing).
func BenchmarkRestoreChain(b *testing.B) {
	const horizon = 6
	ctx := context.Background()
	dir := b.TempDir()
	pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	star := advgen.LossyStar4()
	s, err := topo.BuildCtx(ctx, star, 2, horizon, topo.Config{Pager: pg})
	if err != nil {
		b.Fatal(err)
	}
	rounds, rows, err := s.SnapshotChain()
	if err != nil {
		b.Fatal(err)
	}
	blob, err := s.Interner.Export()
	if err != nil {
		b.Fatal(err)
	}
	interner, err := ptg.ImportInterner(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		r, err := topo.RestoreChain(topo.ChainSpec{
			Adversary: star, InputDomain: 2, Interner: interner, Pager: pg, Rounds: rounds, RowDigest: rows,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != s.Len() {
			b.Fatalf("restored %d runs, want %d", r.Len(), s.Len())
		}
	}
}

// BenchmarkDecompose isolates the per-horizon decomposition cost of a
// session: each iteration decomposes horizons 1..benchMaxHorizon of a chain
// with topocon.DecomposeCtx, as Analyzer.Step does. The spaces are
// extended once outside the timer. "lossylink2" walks LossyLink2;
// "star-quotient" walks lossy-star-4 under its quotient — the S₃ on the
// leaves paired with the swap of the two input values, order 12 — where
// the decomposition runs over orbit representatives.
func BenchmarkDecompose(b *testing.B) {
	b.Run("lossylink2", func(b *testing.B) {
		benchDecompose(b, benchChain(b, topocon.LossyLink2(), topocon.SpaceConfig{}))
	})
	b.Run("star-quotient", func(b *testing.B) {
		star := lossyStar4(b)
		group := topocon.Automorphisms(star)
		if group.Order() != 6 {
			b.Fatalf("lossy-star-4 group order %d, want 6", group.Order())
		}
		benchDecompose(b, benchChain(b, star, topocon.SpaceConfig{Symmetry: group}))
	})
}

// benchChain builds the adversary's chain of spaces at horizons
// 1..benchMaxHorizon by extension; index 0 is unused.
func benchChain(b *testing.B, adv topocon.Adversary, cfg topocon.SpaceConfig) []*topocon.Space {
	ctx := context.Background()
	spaces := make([]*topocon.Space, benchMaxHorizon+1)
	s, err := topocon.BuildSpaceCtx(ctx, adv, 2, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	spaces[1] = s
	for t := 2; t <= benchMaxHorizon; t++ {
		if s, err = s.Extend(ctx, t); err != nil {
			b.Fatal(err)
		}
		spaces[t] = s
	}
	return spaces
}

// benchDecompose decomposes every space from scratch per iteration.
func benchDecompose(b *testing.B, spaces []*topocon.Space) {
	ctx := context.Background()
	want := decompositionSizes(b, spaces)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 1; t < len(spaces); t++ {
			d, err := topocon.DecomposeCtx(ctx, spaces[t])
			if err != nil || len(d.Comps) != want[t] {
				b.Fatalf("horizon %d: %d components, err %v", t, len(d.Comps), err)
			}
		}
	}
}

// decompositionSizes returns the component count of each space, the
// benchmarks' correctness check.
func decompositionSizes(b *testing.B, spaces []*topocon.Space) []int {
	want := make([]int, len(spaces))
	for t := 1; t < len(spaces); t++ {
		d, err := topocon.DecomposeCtx(context.Background(), spaces[t])
		if err != nil {
			b.Fatal(err)
		}
		want[t] = len(d.Comps)
	}
	return want
}

// lossyStar4 is scenarios/lossy-star-4.json's adversary: the star around
// process 1 in both directions, and its three one-spoke-dropping variants.
func lossyStar4(b *testing.B) topocon.Adversary {
	specs := []string{
		"2->1, 3->1, 4->1, 1->2, 1->3, 1->4",
		"2->1, 3->1, 4->1, 1->3, 1->4",
		"2->1, 3->1, 4->1, 1->2, 1->4",
		"2->1, 3->1, 4->1, 1->2, 1->3",
	}
	set := make([]topocon.Graph, len(specs))
	for i, spec := range specs {
		g, err := topocon.ParseGraph(4, spec)
		if err != nil {
			b.Fatal(err)
		}
		set[i] = g
	}
	star, err := topocon.NewOblivious("lossy-star-4", set)
	if err != nil {
		b.Fatal(err)
	}
	return star
}

// BenchmarkExtendQuotient measures the symmetry quotient (DESIGN.md §13)
// on the lossy-star-4 workload: n=4, the center may drop one spoke per
// round, so the leaf processes are interchangeable and ma.Automorphisms
// finds the order-6 S₃ group, which the space pairs with the swap of the
// two input values (order 12). The quotient sub-benchmark builds the
// horizon-7 space with one interned representative per orbit; full builds
// the unquotiented space. Both report their interned item count as the
// items/op metric — the quotient's acceptance floor is a ≥10× reduction
// (11.9× expected: 22,102 of 262,144 runs) at identical full-space
// accounting (FullLen), asserted here so a broken canonicalizer cannot
// pass as a fast benchmark. Verdict equality across
// the two modes is pinned separately by check.TestQuotientMatchesFullSpace
// and the CI differential step.
func BenchmarkExtendQuotient(b *testing.B) {
	const starHorizon = 7
	star := lossyStar4(b)
	group := topocon.Automorphisms(star)
	if group.Order() != 6 {
		b.Fatalf("lossy-star-4 group order %d, want 6 (S₃ on the leaves)", group.Order())
	}
	ctx := context.Background()
	modes := []struct {
		name string
		sym  *topocon.Group
	}{
		{"quotient", group},
		{"full", nil},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var items int
			for i := 0; i < b.N; i++ {
				s, err := topo.BuildCtx(ctx, star, 2, starHorizon, topo.Config{Symmetry: mode.sym})
				if err != nil {
					b.Fatal(err)
				}
				if s.FullLen() != 16*16384 {
					b.Fatalf("full-space accounting %d, want %d", s.FullLen(), 16*16384)
				}
				if mode.sym != nil && s.FullLen() < 10*s.Len() {
					b.Fatalf("quotient interned %d of %d items — reduction under the 10× floor", s.Len(), s.FullLen())
				}
				items = s.Len()
			}
			b.ReportMetric(float64(items), "items")
			sinkInt = items
		})
	}
}

var sinkInt int

func mustCommitted(b *testing.B, free, commit []topocon.Graph, deadline int) topocon.Adversary {
	b.Helper()
	adv, err := topocon.NewCommittedSuffix("", free, commit, deadline)
	if err != nil {
		b.Fatal(err)
	}
	return adv
}

func mustStable(b *testing.B, chaos, stable []topocon.Graph, window int) topocon.Adversary {
	b.Helper()
	adv, err := topocon.NewEventuallyStable("", chaos, stable, window)
	if err != nil {
		b.Fatal(err)
	}
	return adv
}

func randomRuns(rng *rand.Rand, count, n, rounds int) []topocon.Run {
	var all []topocon.Graph
	topocon.EnumerateGraphs(n, func(g topocon.Graph) bool {
		all = append(all, g)
		return true
	})
	runs := make([]topocon.Run, count)
	for i := range runs {
		inputs := make([]int, n)
		for p := range inputs {
			inputs[p] = rng.Intn(2)
		}
		r := topocon.NewRun(inputs)
		for t := 0; t < rounds; t++ {
			r = r.Extend(all[rng.Intn(len(all))])
		}
		runs[i] = r
	}
	return runs
}

// bfsComponents is the ablation baseline: explicit pairwise relation BFS.
func bfsComponents(s *topo.Space) int {
	n := s.Len()
	visited := make([]bool, n)
	related := func(i, j int) bool {
		for p := 0; p < s.N(); p++ {
			if s.ViewAt(i, p) == s.ViewAt(j, p) {
				return true
			}
		}
		return false
	}
	comps := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		comps++
		queue := []int{i}
		visited[i] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for j := 0; j < n; j++ {
				if !visited[j] && related(cur, j) {
					visited[j] = true
					queue = append(queue, j)
				}
			}
		}
	}
	return comps
}
