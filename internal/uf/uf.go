// Package uf provides a union-find (disjoint-set) structure with path
// compression and union by rank. It is the engine behind the
// ε-approximation components of Definition 6.2: runs sharing a process view
// are unioned, and the resulting sets are the connected components of the
// prefix space in the minimum topology. Labelled carries the same forest
// over orbit representatives under a symmetry group, an ma.Group whose
// multiplication table composes the group elements its edges carry
// (DESIGN.md §13).
package uf

// UF is a disjoint-set forest over elements 0..n-1.
type UF struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a forest of n singleton sets.
func New(n int) *UF {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return &UF{
		parent: parent,
		rank:   make([]int8, n),
		sets:   n,
	}
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
	}
	for int(u.parent[x]) != root {
		x, u.parent[x] = int(u.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets of x and y and reports whether they were distinct.
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Groups returns the sets as slices of members, each sorted ascending, in
// ascending order of their smallest member. It is O(n) plus sorting already
// implied by the single ascending sweep.
func (u *UF) Groups() [][]int {
	index := make(map[int]int, u.sets)
	groups := make([][]int, 0, u.sets)
	for x := 0; x < len(u.parent); x++ {
		r := u.Find(x)
		gi, ok := index[r]
		if !ok {
			gi = len(groups)
			index[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], x)
	}
	return groups
}
