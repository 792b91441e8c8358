package uf

import "math/bits"

// Group is a finite group of at most 64 elements given by its
// multiplication table; element 0 is the identity. Subgroups are bitmasks
// over element indices (bit h set iff h belongs to the subgroup).
type Group struct {
	m   int
	mul []uint8 // mul[a*m+b] is a∘b, b applied first
	inv []uint8
}

// NewGroup wraps a multiplication table mul (mul[a·m+b] = a∘b) and the
// inverse index of every element; m is len(inv).
func NewGroup(mul, inv []uint8) Group {
	return Group{m: len(inv), mul: mul, inv: inv}
}

// Order returns the number of elements.
func (g Group) Order() int { return g.m }

// Mul returns a∘b (b applied first).
func (g Group) Mul(a, b uint8) uint8 { return g.mul[int(a)*g.m+int(b)] }

// Quo returns a∘b⁻¹, the element carrying σ_b·x to σ_a·x.
func (g Group) Quo(a, b uint8) uint8 {
	if a|b == 0 {
		return 0
	}
	return g.Mul(a, g.inv[b])
}

// Inv returns the inverse of a.
func (g Group) Inv(a uint8) uint8 { return g.inv[a] }

// Index returns |G| / |H|, the number of cosets of subgroup h.
func (g Group) Index(h uint64) int { return g.m / bits.OnesCount64(h) }

// Conj returns the conjugate x·H·x⁻¹ of the element set h.
func (g Group) Conj(x uint8, h uint64) uint64 {
	if x == 0 || h == 1 {
		return h
	}
	xi := g.inv[x]
	var out uint64
	for rest := h; rest != 0; rest &= rest - 1 {
		out |= 1 << g.Mul(g.Mul(x, uint8(bits.TrailingZeros64(rest))), xi)
	}
	return out
}

// Closure returns the subgroup generated by the element set h (the
// identity included). In a finite group closing under products suffices.
func (g Group) Closure(h uint64) uint64 {
	h |= 1
	for {
		next := h
		for a := h &^ 1; a != 0; a &= a - 1 {
			row := g.mul[bits.TrailingZeros64(a)*g.m:]
			for b := h &^ 1; b != 0; b &= b - 1 {
				next |= 1 << row[bits.TrailingZeros64(b)]
			}
		}
		if next == h {
			return h
		}
		h = next
	}
}

// MinCoset returns the least element of the double coset H·x·S: the
// identity, without a scan, when H or S is the whole group.
func (g Group) MinCoset(h uint64, x uint8, s uint64) uint8 {
	if full := ^uint64(0) >> uint(64-g.m); h == full || s == full {
		return 0
	}
	best := x
	for a := h; a != 0; a &= a - 1 {
		hx := g.Mul(uint8(bits.TrailingZeros64(a)), x)
		for b := s; b != 0; b &= b - 1 {
			if e := g.Mul(hx, uint8(bits.TrailingZeros64(b))); e < best {
				best = e
			}
		}
	}
	return best
}

// Labelled is a union-find over the representatives of the G-orbits of a
// set X on which a group G acts, for a relation ~ on X that G preserves
// (x ~ y implies σ·x ~ σ·y). Elements 0..n-1 stand for one representative
// each; the pair (x, g) stands for the twin σ_g·x. Edges carry group
// elements: Union(x, y, g) records σ_g·x ~ y, and Find(x) returns (r, g)
// with σ_g·x ~ r. Each root r also keeps the subgroup H = {h : σ_h·r ~ r},
// so the ~-class of r meets the orbit of r in exactly the twins σ_h·r, and
// the class orbit of r consists of |G|/|H| distinct classes, one per coset
// of H. With the trivial group every label is the identity, every H is
// {e}, and Labelled is a plain union-find with union by rank.
type Labelled struct {
	g     Group
	nodes []node
	// stab[r] holds H of root r without the identity bit, so the zero
	// value means {e}; nil under the trivial group, where H never grows.
	stab []uint64
}

// node is one element's forest entry, packed so that a lookup touches one
// cache line.
type node struct {
	parent int32
	label  uint8 // σ_label·x ~ parent
	rank   int8
}

// NewLabelled returns a forest of n singleton classes under group g.
func NewLabelled(n int, g Group) *Labelled {
	nodes := make([]node, n)
	for i := range nodes {
		nodes[i].parent = int32(i)
	}
	u := &Labelled{g: g, nodes: nodes}
	if g.m > 1 {
		u.stab = make([]uint64, n)
	}
	return u
}

// Find returns the root r of x's class and the element g with σ_g·x ~ r.
// Elements at most one step below their root — almost all, once paths are
// compressed — take the inlined fast path.
func (u *Labelled) Find(x int) (int, uint8) {
	// A root's label is the identity, so a root returns itself here too.
	if nx := u.nodes[x]; u.nodes[nx.parent].parent == nx.parent {
		return int(nx.parent), nx.label
	}
	return u.find(x)
}

// find is Find's general case: it walks to the root composing the labels,
// then points every node on the path straight at the root.
func (u *Labelled) find(x int) (int, uint8) {
	nodes, m, mul, inv := u.nodes, u.g.m, u.g.mul, u.g.inv
	var g uint8
	r := x
	for nodes[r].parent != int32(r) {
		if l := nodes[r].label; l|g != 0 {
			g = mul[int(l)*m+int(g)]
		}
		r = int(nodes[r].parent)
	}
	// g is the label of x over the root; the label of the next node up
	// is g∘label(x)⁻¹.
	for gx := g; x != r; {
		nx := &nodes[x]
		next, l := int(nx.parent), nx.label
		nx.parent, nx.label = int32(r), gx
		if l|gx != 0 {
			gx = mul[int(gx)*m+int(inv[l])]
		}
		x = next
	}
	return r, g
}

// Stab returns H of root r: the elements h with σ_h·r ~ r.
func (u *Labelled) Stab(r int) uint64 {
	if u.stab == nil {
		return 1
	}
	return u.stab[r] | 1
}

// grow closes H of root r over the extra elements h.
func (u *Labelled) grow(r int, h uint64) {
	if old := u.Stab(r); h&^old != 0 {
		u.stab[r] = u.g.Closure(old|h) &^ 1
	}
}

// Union records σ_g·x ~ y. Joining two classes links the lower-ranked root
// under the other and carries its H over, conjugated into the new root's
// frame; a cycle whose labels disagree adds their difference to H.
func (u *Labelled) Union(x, y int, g uint8) {
	// Find, with its fast path spelled out: Find itself is past the
	// inlining budget.
	nodes := u.nodes
	rx, gx := int(nodes[x].parent), nodes[x].label
	if int(nodes[rx].parent) != rx {
		rx, gx = u.find(x)
	}
	ry, gy := int(nodes[y].parent), nodes[y].label
	if int(nodes[ry].parent) != ry {
		ry, gy = u.find(y)
	}
	// σ_gx·x ~ rx, σ_g·x ~ y and σ_gy·y ~ ry give σ_e·rx ~ ry.
	var e uint8
	if g|gx|gy != 0 {
		e = u.g.Mul(u.g.Mul(gy, g), u.g.inv[gx])
	}
	if rx == ry {
		if e != 0 {
			u.grow(rx, 1<<e)
		}
		return
	}
	if nodes[rx].rank < nodes[ry].rank {
		nodes[rx].parent, nodes[rx].label = int32(ry), e
		if u.stab != nil {
			u.grow(ry, u.g.Conj(e, u.Stab(rx)))
		}
		return
	}
	ei := u.g.inv[e]
	nodes[ry].parent, nodes[ry].label = int32(rx), ei
	if nodes[rx].rank == nodes[ry].rank {
		nodes[rx].rank++
	}
	if u.stab != nil {
		u.grow(rx, u.g.Conj(ei, u.Stab(ry)))
	}
}

// AddStab records σ_h·x ~ x for every element h of the set s.
func (u *Labelled) AddStab(x int, s uint64) {
	if s&^1 == 0 {
		return
	}
	r, g := u.Find(x)
	u.grow(r, u.g.Conj(g, s))
}
