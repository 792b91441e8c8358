package ptg

import "testing"

// TestInternerRepeatInternAllocationFree is the allocation-regression pin
// on the sharded interner's hot path: re-interning an already-known cone —
// the overwhelmingly common case inside a prefix-space expansion, where
// siblings share almost all views — must not allocate at all. The
// pre-sharded interner allocated the key string on every call.
func TestInternerRepeatInternAllocationFree(t *testing.T) {
	in := NewInterner()
	l0 := in.Leaf(0, 0)
	l1 := in.Leaf(1, 1)
	row := []ViewID{l0, l1}
	node := in.Node(0, 0b11, row)
	if avg := testing.AllocsPerRun(200, func() {
		if in.Leaf(0, 0) != l0 || in.Node(0, 0b11, row) != node {
			t.Fatal("intern identity broken")
		}
	}); avg != 0 {
		t.Errorf("re-interning allocated %.2f times per call, want 0", avg)
	}
}

// TestInternerFreshInternAmortizedAllocs pins the amortized cost of
// first-sight interning: arena and probe-table growth are geometric,
// so interning k fresh cones costs well under one allocation each on
// average. The pre-sharded interner paid ≥ 2 (key string + map bucket).
func TestInternerFreshInternAmortizedAllocs(t *testing.T) {
	in := NewInterner()
	x := 0
	const perRun = 512
	avg := testing.AllocsPerRun(8, func() {
		for i := 0; i < perRun; i++ {
			in.Leaf(x%64, x) // fresh (p, x) pair every call
			x++
		}
	})
	if perIntern := avg / perRun; perIntern > 0.5 {
		t.Errorf("fresh interning allocated %.3f times per intern, want ≤ 0.5 amortized", perIntern)
	}
}
