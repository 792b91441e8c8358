package ptg

import (
	"fmt"
	"sort"

	"topocon/internal/graph"
)

// Views holds the hash-consed views of one run prefix at all times 0..T.
// Obtain one via ComputeViews and grow it with Extend. Heard sets are read
// through the views (Interner.Heard), so a Views stores IDs alone.
type Views struct {
	interner *Interner
	n        int
	// ids[t][p] is the ViewID of process p's view at time t.
	ids [][]ViewID
}

// ComputeViews computes the views of every process at every time 0..Rounds
// of the run.
func ComputeViews(in *Interner, r Run) *Views {
	n := r.N()
	v := &Views{
		interner: in,
		n:        n,
		ids:      make([][]ViewID, 1, r.Rounds()+1),
	}
	ids0 := make([]ViewID, n)
	for p := 0; p < n; p++ {
		ids0[p] = in.Leaf(p, r.Inputs[p])
	}
	v.ids[0] = ids0
	for t := 1; t <= r.Rounds(); t++ {
		v.Extend(r.Graph(t))
	}
	return v
}

// ViewsFromRows assembles a Views from externally-owned per-time rows —
// the adapter the columnar prefix-space frontier in internal/topo hands out:
// each row aliases a segment of a dense per-round column, so materializing
// the Views of one run costs O(Rounds) slice headers and copies nothing.
// ids[t][p] must be the ViewID of process p at time t in the given
// interner; rows must never be mutated afterwards (they may be shared with
// other runs). The result supports the full read API; Extend appends fresh
// rows and leaves the aliased ones untouched.
func ViewsFromRows(in *Interner, ids [][]ViewID) *Views {
	if len(ids) == 0 {
		panic("ptg: ViewsFromRows needs non-empty id rows")
	}
	return &Views{
		interner: in,
		n:        len(ids[0]),
		ids:      ids,
	}
}

// N returns the number of processes.
func (v *Views) N() int { return v.n }

// Rounds returns the largest time T with computed views.
func (v *Views) Rounds() int { return len(v.ids) - 1 }

// ID returns the ViewID of process p's view at time t ≤ Rounds().
func (v *Views) ID(t, p int) ViewID { return v.ids[t][p] }

// Heard returns the bitmask of processes p has heard by time t: those q
// whose initial node (q, 0, x_q) lies in p's time-t view.
func (v *Views) Heard(t, p int) uint64 { return v.interner.Heard(v.ids[t][p]) }

// Extend appends one round with communication graph g, computing the views
// at time Rounds()+1. It panics if g has the wrong node count (programming
// error).
func (v *Views) Extend(g graph.Graph) {
	if g.N() != v.n {
		panic(fmt.Sprintf("ptg: extending %d-process views with %d-node graph", v.n, g.N()))
	}
	prevIDs := v.ids[len(v.ids)-1]
	ids := make([]ViewID, v.n)
	for p := 0; p < v.n; p++ {
		ids[p] = v.interner.Node(p, g.In(p), prevIDs)
	}
	v.ids = append(v.ids, ids)
}

// BroadcastTime returns the earliest time t ≤ Rounds() by which every
// process has heard p, or -1 if no such time exists within the prefix.
// Heard-sets only grow, so "every process has heard p by t" is monotone in
// t and the first such t is found by binary search instead of a scan from
// t = 0 — O(n log Rounds) instead of O(n·Rounds) per call.
func (v *Views) BroadcastTime(p int) int {
	bit := uint64(1) << uint(p)
	t := sort.Search(v.Rounds()+1, func(t int) bool {
		return v.HeardByAll(t)&bit != 0
	})
	if t > v.Rounds() {
		return -1
	}
	return t
}

// HeardByAll returns the bitmask of processes p such that every process has
// heard p by time t.
func (v *Views) HeardByAll(t int) uint64 {
	acc := graph.AllNodes(v.n)
	for _, id := range v.ids[t] {
		acc &= v.interner.Heard(id)
	}
	return acc
}

// AgreeLevel returns the first time t at which process p's views in a and b
// differ, or limit+1 if they agree at all times 0..limit, where
// limit = min(a.Rounds(), b.Rounds()). Views refine over time (a difference
// at time t persists at all later times), so "first difference" fully
// determines the pseudo-metric d_{p} on the common prefix:
// d_{p}(a,b) = 2^-AgreeLevel.
//
// Both Views must come from the same Interner; the result is meaningless
// otherwise.
func AgreeLevel(a, b *Views, p int) int {
	limit := min(a.Rounds(), b.Rounds())
	// Monotonicity: agree at t implies agree at all s ≤ t. Scan backwards
	// would also work; a forward scan exits at the first difference.
	for t := 0; t <= limit; t++ {
		if a.ids[t][p] != b.ids[t][p] {
			return t
		}
	}
	return limit + 1
}

// MinAgreeLevel returns max_p AgreeLevel(a,b,p), the level L such that
// d_min(a,b) = 2^-L on the common prefix (Lemma 4.8: the minimum distance
// corresponds to the process that is last to distinguish the runs).
func MinAgreeLevel(a, b *Views) int {
	best := 0
	for p := 0; p < a.n; p++ {
		if l := AgreeLevel(a, b, p); l > best {
			best = l
		}
	}
	return best
}

// MaxAgreeLevel returns min_p AgreeLevel(a,b,p), which corresponds to the
// common-prefix metric d_max = d_[n] of equation (1) in the paper:
// d_max(a,b) = 2^-MaxAgreeLevel.
func MaxAgreeLevel(a, b *Views) int {
	best := AgreeLevel(a, b, 0)
	for p := 1; p < a.n; p++ {
		if l := AgreeLevel(a, b, p); l < best {
			best = l
		}
	}
	return best
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
