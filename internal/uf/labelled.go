package uf

import "topocon/internal/ma"

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
	g     *ma.Group
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

// NewLabelled returns a forest of n singleton classes under group g, whose
// multiplication table (ma.Group.Table) composes the labels.
func NewLabelled(n int, g *ma.Group) *Labelled {
	nodes := make([]node, n)
	for i := range nodes {
		nodes[i].parent = int32(i)
	}
	u := &Labelled{g: g, nodes: nodes}
	if !g.Trivial() {
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
	mul, inv := u.g.Table()
	nodes, m := u.nodes, len(inv)
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
		e = u.g.Mul(u.g.Mul(gy, g), u.g.Inv(gx))
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
	ei := u.g.Inv(e)
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
