package ptg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"topocon/internal/graph"
)

func TestInternerLeafConsistency(t *testing.T) {
	in := NewInterner()
	a := in.Leaf(0, 1)
	b := in.Leaf(0, 1)
	if a != b {
		t.Error("identical leaves interned to different IDs")
	}
	if in.Leaf(0, 2) == a {
		t.Error("different input values interned to the same ID")
	}
	if in.Leaf(1, 1) == a {
		t.Error("different processes interned to the same ID")
	}
	if in.Size() != 3 {
		t.Errorf("Size() = %d, want 3", in.Size())
	}
}

func TestInternerNodeConsistency(t *testing.T) {
	in := NewInterner()
	l0 := in.Leaf(0, 0)
	l1 := in.Leaf(1, 0)
	row := []ViewID{l0, l1}
	a := in.Node(0, 0b11, row)
	b := in.Node(0, 0b11, row)
	if a != b {
		t.Error("identical nodes interned to different IDs")
	}
	if c := in.Node(0, 0b01, row); c == a {
		t.Error("different child sets interned to the same ID")
	}
	if c := in.Node(1, 0b11, row); c == a {
		t.Error("different owners interned to the same ID")
	}
}

// runFromSeed builds a deterministic pseudo-random run for property tests.
func runFromSeed(rng *rand.Rand, n, rounds, inputDomain int) Run {
	inputs := make([]int, n)
	for p := range inputs {
		inputs[p] = rng.Intn(inputDomain)
	}
	r := NewRun(inputs)
	total := graph.CountAll(n)
	for t := 0; t < rounds; t++ {
		r = r.Extend(graph.ByIndex(n, uint64(rng.Int63())%total))
	}
	return r
}

// TestViewIDMatchesExplicitCone is the central soundness check: hash-consed
// ViewID equality must coincide with explicit causal-cone equality, across
// runs, processes and times.
func TestViewIDMatchesExplicitCone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, rounds = 3, 3
		in := NewInterner()
		a := runFromSeed(rng, n, rounds, 2)
		b := runFromSeed(rng, n, rounds, 2)
		va := ComputeViews(in, a)
		vb := ComputeViews(in, b)
		for p := 0; p < n; p++ {
			for tt := 0; tt <= rounds; tt++ {
				idEq := va.ID(tt, p) == vb.ID(tt, p)
				coneEq := ConeOf(a, p, tt).Encode() == ConeOf(b, p, tt).Encode()
				if idEq != coneEq {
					t.Logf("mismatch at p=%d t=%d:\n a=%v\n b=%v", p, tt, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestViewRefinement: a view difference at time t persists at time t+1
// (this is what makes level-t indistinguishability relations refine).
func TestViewRefinement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, rounds = 3, 4
		in := NewInterner()
		va := ComputeViews(in, runFromSeed(rng, n, rounds, 2))
		vb := ComputeViews(in, runFromSeed(rng, n, rounds, 2))
		for p := 0; p < n; p++ {
			differed := false
			for tt := 0; tt <= rounds; tt++ {
				eq := va.ID(tt, p) == vb.ID(tt, p)
				if differed && eq {
					return false
				}
				if !eq {
					differed = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestHeardMatchesCone: the incremental heard-sets must agree with the
// initial nodes present in the explicit cone.
func TestHeardMatchesCone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		const n, rounds = 3, 3
		r := runFromSeed(rng, n, rounds, 2)
		v := ComputeViews(NewInterner(), r)
		for p := 0; p < n; p++ {
			for tt := 0; tt <= rounds; tt++ {
				cone := ConeOf(r, p, tt)
				for q := 0; q < n; q++ {
					wantHeard := cone.ContainsInitial(q)
					gotHeard := v.Heard(tt, p)&(1<<uint(q)) != 0
					if wantHeard != gotHeard {
						t.Fatalf("heard mismatch: run %v p=%d t=%d q=%d cone=%v incr=%v",
							r, p, tt, q, wantHeard, gotHeard)
					}
				}
			}
		}
	}
}

func TestBroadcastTime(t *testing.T) {
	const n = 4
	star := graph.Star(n, 1)
	r := NewRun([]int{0, 1, 0, 1}).Extend(star).Extend(star)
	v := ComputeViews(NewInterner(), r)
	if got := v.BroadcastTime(1); got != 1 {
		t.Errorf("star: BroadcastTime(center) = %d, want 1", got)
	}
	if got := v.BroadcastTime(0); got != -1 {
		t.Errorf("star: BroadcastTime(leaf) = %d, want -1", got)
	}

	chain := graph.Chain(n)
	r = NewRun([]int{0, 0, 0, 0})
	for i := 0; i < n-1; i++ {
		r = r.Extend(chain)
	}
	v = ComputeViews(NewInterner(), r)
	if got := v.BroadcastTime(0); got != n-1 {
		t.Errorf("chain: BroadcastTime(head) = %d, want %d", got, n-1)
	}

	empty := graph.New(n)
	r = NewRun([]int{0, 0, 0, 0}).Extend(empty).Extend(empty)
	v = ComputeViews(NewInterner(), r)
	for p := 0; p < n; p++ {
		if got := v.BroadcastTime(p); got != -1 {
			t.Errorf("empty: BroadcastTime(%d) = %d, want -1", p, got)
		}
	}
}

// TestBroadcastTimeMatchesLinearScan pins the binary-search BroadcastTime
// against the reference linear scan from t = 0: heard-set monotonicity makes
// the two equivalent, and this test keeps that equivalence enforced.
func TestBroadcastTimeMatchesLinearScan(t *testing.T) {
	linear := func(v *Views, p int) int {
		bit := uint64(1) << uint(p)
		for tt := 0; tt <= v.Rounds(); tt++ {
			all := true
			for q := 0; q < v.N(); q++ {
				if v.Heard(tt, q)&bit == 0 {
					all = false
					break
				}
			}
			if all {
				return tt
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(3)
		rounds := rng.Intn(7)
		v := ComputeViews(NewInterner(), runFromSeed(rng, n, rounds, 2))
		for p := 0; p < n; p++ {
			if got, want := v.BroadcastTime(p), linear(v, p); got != want {
				t.Fatalf("n=%d rounds=%d p=%d: BroadcastTime = %d, linear scan = %d",
					n, rounds, p, got, want)
			}
		}
	}
}

func TestHeardByAll(t *testing.T) {
	r := NewRun([]int{0, 1}).Extend(graph.Right) // 1 -> 2
	v := ComputeViews(NewInterner(), r)
	if got := v.HeardByAll(1); got != 0b01 {
		t.Errorf("HeardByAll(1) = %s, want {1}", graph.FormatNodeSet(got))
	}
	r2 := NewRun([]int{0, 1}).Extend(graph.Both)
	v2 := ComputeViews(NewInterner(), r2)
	if got := v2.HeardByAll(1); got != 0b11 {
		t.Errorf("HeardByAll(1) with <-> = %s, want {1,2}", graph.FormatNodeSet(got))
	}
}

// TestFig3Distances reproduces Figure 3 of the paper: a run pair with
// d_max = d_{3} = 1, d_{2} = 1/2, d_min = d_{1} = 1/4.
func TestFig3Distances(t *testing.T) {
	g1 := graph.MustParse(3, "3->2")
	g2 := graph.MustParse(3, "2->1")
	alpha := NewRun([]int{0, 0, 0}).Extend(g1).Extend(g2)
	beta := NewRun([]int{0, 0, 1}).Extend(g1).Extend(g2)
	in := NewInterner()
	va := ComputeViews(in, alpha)
	vb := ComputeViews(in, beta)

	if got := AgreeLevel(va, vb, 2); got != 0 {
		t.Errorf("process 3 first differs at %d, want 0 (d=1)", got)
	}
	if got := AgreeLevel(va, vb, 1); got != 1 {
		t.Errorf("process 2 first differs at %d, want 1 (d=1/2)", got)
	}
	if got := AgreeLevel(va, vb, 0); got != 2 {
		t.Errorf("process 1 first differs at %d, want 2 (d=1/4)", got)
	}
	if got := MaxAgreeLevel(va, vb); got != 0 {
		t.Errorf("MaxAgreeLevel = %d, want 0 (d_max=1)", got)
	}
	if got := MinAgreeLevel(va, vb); got != 2 {
		t.Errorf("MinAgreeLevel = %d, want 2 (d_min=1/4)", got)
	}
}

// TestUnseenDifference: a graph difference that never reaches a process
// leaves that process's views equal through the whole prefix.
func TestUnseenDifference(t *testing.T) {
	// Runs differ only in round 2: -> vs --. Process 1 never hears 2, so
	// its views agree forever within the prefix.
	a := NewRun([]int{0, 1}).Extend(graph.Right).Extend(graph.Right).Extend(graph.Right)
	b := NewRun([]int{0, 1}).Extend(graph.Right).Extend(graph.Neither).Extend(graph.Right)
	in := NewInterner()
	va := ComputeViews(in, a)
	vb := ComputeViews(in, b)
	if got := AgreeLevel(va, vb, 0); got != 4 {
		t.Errorf("process 1 AgreeLevel = %d, want 4 (agrees through prefix)", got)
	}
	if got := AgreeLevel(va, vb, 1); got != 2 {
		t.Errorf("process 2 AgreeLevel = %d, want 2", got)
	}
	if got := MinAgreeLevel(va, vb); got != 4 {
		t.Errorf("MinAgreeLevel = %d, want 4 (d_min < 2^-3)", got)
	}
}

// TestAgreeLevelPseudoMetricProperties checks symmetry and the triangle
// inequality of d_{p} = 2^-AgreeLevel (Theorem 4.3) plus monotonicity
// d_min ≤ d_{p} ≤ d_max on random run triples.
func TestAgreeLevelPseudoMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, rounds = 3, 3
		in := NewInterner()
		va := ComputeViews(in, runFromSeed(rng, n, rounds, 2))
		vb := ComputeViews(in, runFromSeed(rng, n, rounds, 2))
		vc := ComputeViews(in, runFromSeed(rng, n, rounds, 2))
		for p := 0; p < n; p++ {
			ab := AgreeLevel(va, vb, p)
			ba := AgreeLevel(vb, va, p)
			if ab != ba {
				return false
			}
			// Triangle inequality in exponent form:
			// first-diff(a,c) ≥ min(first-diff(a,b), first-diff(b,c)).
			ac := AgreeLevel(va, vc, p)
			bc := AgreeLevel(vb, vc, p)
			lo := ab
			if bc < lo {
				lo = bc
			}
			if ac < lo {
				return false
			}
			if AgreeLevel(va, vb, p) > MinAgreeLevel(va, vb) {
				return false
			}
			if AgreeLevel(va, vb, p) < MaxAgreeLevel(va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestExtendPanicsOnWrongSize(t *testing.T) {
	v := ComputeViews(NewInterner(), NewRun([]int{0, 1}))
	defer func() {
		if recover() == nil {
			t.Error("Extend with wrong graph size did not panic")
		}
	}()
	v.Extend(graph.New(3))
}
