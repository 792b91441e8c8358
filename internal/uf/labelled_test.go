package uf

import (
	"math/bits"
	"math/rand"
	"testing"
)

// symmetricGroup returns the multiplication table of the permutations of
// n points, identity first.
func symmetricGroup(n int) Group {
	var perms [][]int
	var gen func(p []int, used int)
	gen = func(p []int, used int) {
		if len(p) == n {
			perms = append(perms, append([]int(nil), p...))
			return
		}
		for q := 0; q < n; q++ {
			if used&(1<<q) == 0 {
				gen(append(p, q), used|1<<q)
			}
		}
	}
	gen(nil, 0)
	index := map[[8]int]int{}
	key := func(p []int) (k [8]int) {
		copy(k[:], p)
		return k
	}
	for i, p := range perms {
		index[key(p)] = i
	}
	m := len(perms)
	mul, inv := make([]uint8, m*m), make([]uint8, m)
	comp := make([]int, n)
	for a := range perms {
		for b := range perms {
			for x := 0; x < n; x++ {
				comp[x] = perms[a][perms[b][x]]
			}
			ab := index[key(comp)]
			mul[a*m+b] = uint8(ab)
			if ab == 0 {
				inv[a] = uint8(b)
			}
		}
	}
	return NewGroup(mul, inv)
}

// TestLabelledMatchesTwinUnionFind checks the labelled union-find against
// a plain union-find over every twin (x, g) of n representatives: Union(x,
// y, g) joins (x, k∘g) with (y, k) and AddStab(x, s) joins (x, k∘h) with
// (x, k) for every k, as equivariance demands. Find must name a twin of
// the root in x's class, Stab the twins of the root in the root's class,
// and the classes of the twins must number Σ |G|/|H| over the roots.
func TestLabelledMatchesTwinUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []Group{Trivial, symmetricGroup(2), symmetricGroup(3), symmetricGroup(4)} {
		m := g.Order()
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(12)
			u := NewLabelled(n, g)
			ref := New(n * m)
			for op := 0; op < rng.Intn(3*n); op++ {
				x, y, e := rng.Intn(n), rng.Intn(n), uint8(rng.Intn(m))
				if rng.Intn(4) == 0 {
					s := uint64(1) | 1<<e
					u.AddStab(x, s)
					for k := 0; k < m; k++ {
						ref.Union(x*m+int(g.Mul(uint8(k), e)), x*m+k)
					}
					continue
				}
				u.Union(x, y, e)
				for k := 0; k < m; k++ {
					ref.Union(x*m+int(g.Mul(uint8(k), e)), y*m+k)
				}
			}
			classes := 0
			for x := 0; x < n; x++ {
				r, l := u.Find(x)
				if !ref.Same(x*m+int(l), r*m) {
					t.Fatalf("order %d: Find(%d) = (%d, %d), but that twin is not in the root's class", m, x, r, l)
				}
				if r != x {
					continue
				}
				h := u.Stab(r)
				if !g.IsSubgroup(h) {
					t.Fatalf("order %d: root %d stabilizer %b is no subgroup", m, r, h)
				}
				for k := 0; k < m; k++ {
					if in := h&(1<<k) != 0; in != ref.Same(r*m+k, r*m) {
						t.Fatalf("order %d: root %d: twin %d in stabilizer %v, in class %v", m, r, k, in, !in)
					}
				}
				classes += m / bits.OnesCount64(h)
			}
			if classes != ref.Sets() {
				t.Fatalf("order %d: %d classes from the orbits, %d among the twins", m, classes, ref.Sets())
			}
		}
	}
}

// TestGroupCosets pins the subgroup helpers on S₃.
func TestGroupCosets(t *testing.T) {
	g := symmetricGroup(3)
	if g.Order() != 6 || !g.IsSubgroup(1) || !g.IsSubgroup(1<<6-1) {
		t.Fatal("S3 table is wrong")
	}
	for e := 1; e < 6; e++ {
		h := g.Closure(1 << e)
		if !g.IsSubgroup(h) || h&(1<<e) == 0 {
			t.Fatalf("closure of %d is %b", e, h)
		}
		if g.IsSubgroup(1 << e) {
			t.Fatalf("%b lacks the identity but passes as a subgroup", 1<<e)
		}
		for x := 0; x < 6; x++ {
			conj := g.Conj(uint8(x), h)
			if !g.IsSubgroup(conj) || bits.OnesCount64(conj) != bits.OnesCount64(h) {
				t.Fatalf("conjugate of %b by %d is %b", h, x, conj)
			}
			least := g.MinCoset(h, uint8(x), 1)
			for a := h; a != 0; a &= a - 1 {
				if e := g.Mul(uint8(bits.TrailingZeros64(a)), uint8(x)); e < least {
					t.Fatalf("MinCoset(%b, %d) = %d but %d is in the coset", h, x, least, e)
				}
			}
		}
	}
	if g.IsSubgroup(1 | 1<<1 | 1<<3) {
		t.Fatal("a non-closed set passes as a subgroup")
	}
}
