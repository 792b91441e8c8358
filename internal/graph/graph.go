// Package graph implements directed communication graphs on a fixed node set
// [n] = {0, ..., n-1}, the round-by-round objects a message adversary picks.
//
// Following the dynamic-network convention (and as required for the view
// refinement property used throughout the topology packages, see DESIGN.md),
// every graph contains all self-loops: a process always receives its own
// state. All constructors normalize accordingly.
//
// Graphs are immutable after construction; all mutating helpers return new
// graphs. Nodes are indexed 0..n-1 internally; the paper's process ids
// 1..n map to index+1 in rendered output.
package graph

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxNodes is the largest supported node count; adjacency rows are uint64
// bitmasks.
const MaxNodes = 64

// MaxQuotientNodes is the largest node count a symmetry quotient with a
// nontrivial group supports: the orbit-canonical interner keeps its
// per-process scratch in fixed arrays of this size, so a group on more
// processes falls back to the trivial one.
const MaxQuotientNodes = 16

// Graph is a directed graph on n nodes with mandatory self-loops.
//
// The zero value is an empty graph on zero nodes; use New or FromEdges to
// construct usable instances.
type Graph struct {
	n  int
	in []uint64 // in[q] = bitmask of p such that (p,q) is an edge
}

// Edge is a directed edge From → To.
type Edge struct {
	From, To int
}

// New returns the graph on n nodes containing only the self-loops.
// It panics if n is out of range; graph construction with invalid n is a
// programming error, not a runtime condition.
func New(n int) Graph {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("graph: node count %d out of range [1,%d]", n, MaxNodes))
	}
	in := make([]uint64, n)
	for q := 0; q < n; q++ {
		in[q] = 1 << uint(q)
	}
	return Graph{n: n, in: in}
}

// FromEdges returns the graph on n nodes with the given edges (plus all
// self-loops). It returns an error if any endpoint is out of range.
func FromEdges(n int, edges []Edge) (Graph, error) {
	g := New(n)
	in := append([]uint64(nil), g.in...)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return Graph{}, fmt.Errorf("graph: edge %d->%d out of range for n=%d", e.From, e.To, n)
		}
		in[e.To] |= 1 << uint(e.From)
	}
	return Graph{n: n, in: in}, nil
}

// FromInMasks builds a graph directly from per-node in-neighbour masks.
// Self-loops are added; bits at position ≥ n must be zero.
func FromInMasks(n int, in []uint64) (Graph, error) {
	if n <= 0 || n > MaxNodes {
		return Graph{}, fmt.Errorf("graph: node count %d out of range [1,%d]", n, MaxNodes)
	}
	if len(in) != n {
		return Graph{}, fmt.Errorf("graph: got %d masks for n=%d", len(in), n)
	}
	full := AllNodes(n)
	masks := make([]uint64, n)
	for q, m := range in {
		if m&^full != 0 {
			return Graph{}, fmt.Errorf("graph: mask %#x of node %d has bits beyond n=%d", m, q, n)
		}
		masks[q] = m | 1<<uint(q)
	}
	return Graph{n: n, in: masks}, nil
}

// AllNodes returns the bitmask {0, ..., n-1}.
func AllNodes(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// N returns the number of nodes.
func (g Graph) N() int { return g.n }

// HasEdge reports whether (p,q) is an edge. Self-loops always exist.
func (g Graph) HasEdge(p, q int) bool { return g.in[q]&(1<<uint(p)) != 0 }

// In returns the bitmask of in-neighbours of q (senders q hears), always
// including q itself.
func (g Graph) In(q int) uint64 { return g.in[q] }

// Out returns the bitmask of out-neighbours of p (receivers of p), always
// including p itself.
func (g Graph) Out(p int) uint64 {
	var out uint64
	bit := uint64(1) << uint(p)
	for q := 0; q < g.n; q++ {
		if g.in[q]&bit != 0 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// InDegree returns the number of in-neighbours of q, counting q itself.
func (g Graph) InDegree(q int) int { return bits.OnesCount64(g.in[q]) }

// EdgeCount returns the number of edges excluding self-loops.
func (g Graph) EdgeCount() int {
	total := 0
	for q := 0; q < g.n; q++ {
		total += bits.OnesCount64(g.in[q] &^ (1 << uint(q)))
	}
	return total
}

// Edges returns all edges excluding self-loops, sorted by (From, To).
func (g Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.EdgeCount())
	for p := 0; p < g.n; p++ {
		for q := 0; q < g.n; q++ {
			if p != q && g.HasEdge(p, q) {
				edges = append(edges, Edge{From: p, To: q})
			}
		}
	}
	return edges
}

// Equal reports whether g and h are the same graph.
func (g Graph) Equal(h Graph) bool {
	if g.n != h.n {
		return false
	}
	for q := 0; q < g.n; q++ {
		if g.in[q] != h.in[q] {
			return false
		}
	}
	return true
}

// Key returns a compact canonical representation usable as a map key: the
// node count in decimal, a colon, then each in-mask in lowercase hex followed
// by a dot. Fingerprints, sweep keys and store keys embed it, so the form is
// frozen.
func (g Graph) Key() string {
	var sb strings.Builder
	sb.Grow(2 + g.n*3)
	var digits [16]byte
	sb.Write(strconv.AppendInt(digits[:0], int64(g.n), 10))
	sb.WriteByte(':')
	for q := 0; q < g.n; q++ {
		sb.Write(strconv.AppendUint(digits[:0], g.in[q], 16))
		sb.WriteByte('.')
	}
	return sb.String()
}

// String renders the edge list (excluding self-loops) with 1-based process
// ids, e.g. "[1->2 3->1]"; the empty relation renders as "[]".
func (g Graph) String() string {
	edges := g.Edges()
	parts := make([]string, 0, len(edges))
	for _, e := range edges {
		parts = append(parts, fmt.Sprintf("%d->%d", e.From+1, e.To+1))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// AddEdge returns a copy of g with edge (p,q) added.
func (g Graph) AddEdge(p, q int) Graph {
	in := append([]uint64(nil), g.in...)
	in[q] |= 1 << uint(p)
	return Graph{n: g.n, in: in}
}

// RemoveEdge returns a copy of g with edge (p,q) removed. Removing a
// self-loop is a no-op: self-loops are mandatory.
func (g Graph) RemoveEdge(p, q int) Graph {
	if p == q {
		return g
	}
	in := append([]uint64(nil), g.in...)
	in[q] &^= 1 << uint(p)
	return Graph{n: g.n, in: in}
}

// Relabel returns the graph with every node p renamed to perm[p]: (p,q)
// is an edge of g iff (perm[p],perm[q]) is an edge of the result. perm
// must be a permutation of [0,n). Self-loops map to self-loops, so the
// result is again a valid graph.
func (g Graph) Relabel(perm []int) Graph {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: relabeling %d-node graph with %d-element permutation", g.n, len(perm)))
	}
	in := make([]uint64, g.n)
	for q := 0; q < g.n; q++ {
		in[perm[q]] = PermuteMask(g.in[q], perm)
	}
	return Graph{n: g.n, in: in}
}

// PermuteMask relabels a node bitmask: bit p of mask becomes bit perm[p]
// of the result. Bits at positions ≥ len(perm) must be zero.
func PermuteMask(mask uint64, perm []int) uint64 {
	var out uint64
	for mask != 0 {
		p := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(p)
		out |= 1 << uint(perm[p])
	}
	return out
}

// Union returns the graph with the union of both edge sets.
// It panics if the node counts differ (programming error).
func (g Graph) Union(h Graph) Graph {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: union of graphs with n=%d and n=%d", g.n, h.n))
	}
	in := make([]uint64, g.n)
	for q := 0; q < g.n; q++ {
		in[q] = g.in[q] | h.in[q]
	}
	return Graph{n: g.n, in: in}
}

// Compose returns the relational composition g;h: (p,q) is an edge iff
// there is r with (p,r) in g and (r,q) in h. Because both factors contain
// all self-loops, the composition contains both edge sets. It panics if the
// node counts differ.
func (g Graph) Compose(h Graph) Graph {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: compose of graphs with n=%d and n=%d", g.n, h.n))
	}
	in := make([]uint64, g.n)
	for q := 0; q < g.n; q++ {
		mid := h.in[q] // r such that (r,q) in h
		var acc uint64
		for mid != 0 {
			r := bits.TrailingZeros64(mid)
			mid &^= 1 << uint(r)
			acc |= g.in[r]
		}
		in[q] = acc
	}
	return Graph{n: g.n, in: in}
}

// Spread returns the one-round propagation of the node set src: the set of
// nodes that hear some member of src under g (always a superset of src,
// thanks to self-loops).
func (g Graph) Spread(src uint64) uint64 {
	var dst uint64
	for q := 0; q < g.n; q++ {
		if g.in[q]&src != 0 {
			dst |= 1 << uint(q)
		}
	}
	return dst
}

// ReachableFrom returns the set of nodes reachable from src by directed
// paths of any length (including src itself).
func (g Graph) ReachableFrom(src uint64) uint64 {
	cur := src
	for {
		next := g.Spread(cur)
		if next == cur {
			return cur
		}
		cur = next
	}
}

// Broadcasters returns the bitmask of nodes that reach every node by a
// directed path.
func (g Graph) Broadcasters() uint64 {
	full := AllNodes(g.n)
	var out uint64
	for p := 0; p < g.n; p++ {
		if g.ReachableFrom(1<<uint(p)) == full {
			out |= 1 << uint(p)
		}
	}
	return out
}

// IsStronglyConnected reports whether g has a single strongly connected
// component.
func (g Graph) IsStronglyConnected() bool {
	return len(g.SCCs()) == 1
}

// Nodes returns the 0-based node indices present in mask, ascending.
func Nodes(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		p := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(p)
		out = append(out, p)
	}
	return out
}

// FormatNodeSet renders a node bitmask as 1-based ids, e.g. "{1,3}".
func FormatNodeSet(mask uint64) string {
	ids := Nodes(mask)
	parts := make([]string, len(ids))
	for i, p := range ids {
		parts[i] = fmt.Sprint(p + 1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
