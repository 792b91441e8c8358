package uf

import (
	"math/bits"
	"math/rand"
	"testing"

	"topocon/internal/ma"
)

// symmetricGroup returns the permutations of n points, identity first.
func symmetricGroup(n int) *ma.Group {
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
	return mustGroup(perms)
}

// dihedralGroup returns the 8 symmetries of a square (its corners 0..3 in
// cyclic order), identity first: the closure of a quarter turn and a
// reflection.
func dihedralGroup() *ma.Group {
	perms := [][]int{{0, 1, 2, 3}}
	index := map[[4]int]bool{{0, 1, 2, 3}: true}
	gens := [][]int{{1, 2, 3, 0}, {0, 3, 2, 1}}
	for i := 0; i < len(perms); i++ {
		for _, g := range gens {
			var comp [4]int
			for x := range comp {
				comp[x] = g[perms[i][x]]
			}
			if !index[comp] {
				index[comp] = true
				perms = append(perms, comp[:])
			}
		}
	}
	return mustGroup(perms)
}

// mustGroup returns the group of the closed permutation set perms.
func mustGroup(perms [][]int) *ma.Group {
	g, err := ma.NewGroup(perms, nil)
	if err != nil {
		panic(err)
	}
	return g
}

// TestLabelledMatchesTwinUnionFind checks the labelled union-find against
// a plain union-find over every twin (x, g) of n representatives: Union(x,
// y, g) joins (x, k∘g) with (y, k) and AddStab(x, s) joins (x, k∘h) with
// (x, k) for every k, as equivariance demands. Find must name a twin of
// the root in x's class, Stab the twins of the root in the root's class,
// and the classes of the twins must number Σ |G|/|H| over the roots.
func TestLabelledMatchesTwinUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*ma.Group{ma.TrivialGroup(1), symmetricGroup(2), symmetricGroup(3), symmetricGroup(4)} {
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
				if !isSubgroup(g, h) {
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

// TestGroupCosets pins the subgroup helpers on S₃ (MinCoset has its own
// test below).
func TestGroupCosets(t *testing.T) {
	g := symmetricGroup(3)
	if g.Order() != 6 || !isSubgroup(g, 1) || !isSubgroup(g, 1<<6-1) {
		t.Fatal("S3 table is wrong")
	}
	for e := 1; e < 6; e++ {
		h := g.Closure(1 << e)
		if !isSubgroup(g, h) || h&(1<<e) == 0 {
			t.Fatalf("closure of %d is %b", e, h)
		}
		if isSubgroup(g, 1<<e) {
			t.Fatalf("%b lacks the identity but passes as a subgroup", 1<<e)
		}
		for x := 0; x < 6; x++ {
			conj := g.Conj(uint8(x), h)
			if !isSubgroup(g, conj) || bits.OnesCount64(conj) != bits.OnesCount64(h) {
				t.Fatalf("conjugate of %b by %d is %b", h, x, conj)
			}
		}
	}
	if isSubgroup(g, 1|1<<1|1<<3) {
		t.Fatal("a non-closed set passes as a subgroup")
	}
}

// TestMinCosetMatchesBruteForce compares MinCoset with the least element
// of the double coset H·x·S built element by element, for every pair of
// subgroups H, S (the whole group among them) and every x of S₃ and of the
// dihedral group of order 8.
func TestMinCosetMatchesBruteForce(t *testing.T) {
	for _, g := range []*ma.Group{symmetricGroup(3), dihedralGroup()} {
		m := g.Order()
		var subs []uint64
		for h := uint64(1); h < 1<<m; h += 2 {
			if isSubgroup(g, h) {
				subs = append(subs, h)
			}
		}
		if want := map[int]int{6: 6, 8: 10}[m]; len(subs) != want {
			t.Fatalf("order %d: %d subgroups, want %d", m, len(subs), want)
		}
		for _, h := range subs {
			for _, s := range subs {
				for x := 0; x < m; x++ {
					least := uint8(m)
					for a := h; a != 0; a &= a - 1 {
						for b := s; b != 0; b &= b - 1 {
							least = min(least, g.Mul(g.Mul(uint8(bits.TrailingZeros64(a)), uint8(x)), uint8(bits.TrailingZeros64(b))))
						}
					}
					if got := g.MinCoset(h, uint8(x), s); got != least {
						t.Fatalf("order %d: MinCoset(%b, %d, %b) = %d, want %d", m, h, x, s, got, least)
					}
				}
			}
		}
	}
}

// isSubgroup reports whether h names elements of g only, holds the
// identity, and is closed under products.
func isSubgroup(g *ma.Group, h uint64) bool {
	if m := g.Order(); h&1 == 0 || (m < 64 && h>>uint(m) != 0) {
		return false
	}
	return g.Closure(h) == h
}
