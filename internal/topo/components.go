package topo

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"topocon/internal/graph"
	"topocon/internal/ptg"
	"topocon/internal/uf"
)

// Component is one connected component of the horizon-t prefix space in the
// minimum topology — equivalently, the ε-approximation PS^ε (ε = 2^-t,
// Definition 6.2) of each of its members.
type Component struct {
	// Members are item indices into the space, ascending.
	Members []int
	// Valences lists the distinct values v for which the component
	// contains a v-valent run, ascending.
	Valences []int
	// Broadcasters is the bitmask of processes p such that in every member
	// run, every process has heard p by the horizon (Definition 5.8 at
	// finite resolution).
	Broadcasters uint64
	// UniformInputs is the bitmask of processes p whose input x_p is the
	// same across all members. Theorem 5.9 predicts
	// Broadcasters ⊆ UniformInputs for connected components.
	UniformInputs uint64
}

// Mixed reports whether the component contains valent runs of at least two
// different values — the obstruction of Corollary 5.6.
func (c *Component) Mixed() bool { return len(c.Valences) >= 2 }

// Decomposition is the component structure of a space.
//
// Over a symmetry-quotiented space (Space.Quotiented) the decomposition
// works on pseudo-items — pair (i,k) of representative item i and group
// element k, indexed i·Mult+k — so that it reproduces the FULL space's
// component structure exactly (two orbit members of one representative
// may lie in different full-space components; decomposing representative
// rows alone would be unsound). CompOf and Members then hold pseudo-item
// indices; divide by Mult for the representative item.
type Decomposition struct {
	Space *Space
	// CompOf maps each (pseudo-)item index to its component index.
	CompOf []int
	// Comps are the components, ordered by smallest member.
	Comps []Component
	// Mult is the pseudo-item multiplier: the symmetry group's order for
	// decompositions of quotiented spaces, and 0 or 1 otherwise.
	Mult int
}

// mult returns the pseudo-item multiplier, treating the zero value (set
// by pre-quotient constructors) as 1.
func (d *Decomposition) mult() int {
	if d.Mult <= 1 {
		return 1
	}
	return d.Mult
}

// itemViews materializes the Views adapter of a member index: the item's
// own views for plain decompositions, the relabeled pseudo-item views
// under a quotient.
func (d *Decomposition) itemViews(pi int) *ptg.Views {
	m := d.mult()
	if m == 1 {
		return d.Space.ViewsOf(pi)
	}
	return d.Space.PseudoViews(pi/m, pi%m)
}

// Decompose computes the connected components of the space at its horizon:
// two runs are related iff some process has the same time-t view in both,
// and components are the transitive closure classes. This is exactly the
// iterated ball-union construction of Definition 6.2 restricted to the
// horizon, because view equality at the horizon implies view equality at
// all earlier times (refinement property, package ptg).
func Decompose(s *Space) *Decomposition {
	//topocon:allow ctxflow -- documented pre-context convenience shim; cancellable callers use DecomposeCtx
	d, err := DecomposeCtx(context.Background(), s)
	if err != nil {
		// Unreachable: the background context never cancels and the
		// decomposition has no other failure mode.
		panic(err)
	}
	return d
}

// DecomposeCtx is Decompose under a context: it returns ctx.Err() on
// cancellation, and spreads the view-bucket scan and the per-component
// summaries over the space's worker pool when its parallelism is > 1. The
// scan reads the horizon's ViewID column directly — no per-item view
// objects are touched. The resulting partition is identical to the
// sequential one: workers scan disjoint item ranges into local bucket
// tables (recording in-range unions as edges, since the union-find is not
// concurrency-safe), and a sequential merge closes the relation across
// ranges — the transitive closure does not depend on the order unions are
// applied.
//
//topocon:export
func DecomposeCtx(ctx context.Context, s *Space) (*Decomposition, error) {
	// Under a symmetry quotient the union-find runs over pseudo-items
	// (i,k) = rep × group element, indexed i·m+k, whose view rows are the
	// rep rows relabeled by k (Interner.Relabel, ID arithmetic). With m = 1
	// the pseudo index IS the item index and no ID is relabeled.
	m := s.SymOrder()
	in := s.Interner
	pcount := s.pseudoLen()
	u := uf.New(pcount)
	// Bucket runs by hash-consed view ID; every bucket is a clique in the
	// indistinguishability relation, so unioning each member to the
	// bucket's first suffices. View IDs encode the owning process, so a
	// single bucket table over all processes is sound.
	n := s.N()
	s.fr.fault()
	ids := s.fr.ids
	count := s.Len()
	if s.parallelism <= 1 {
		// Sequential fast path: interned IDs are dense, so a pooled
		// epoch-stamped array (shared with Refine) replaces the hash map.
		sc := refineScratchPool.Get().(*refineScratch)
		sc.acquire(in.IDBound(), 1)
		sc.epoch++
		epoch := sc.epoch
		stamp, firstOf := sc.stamp, sc.firstOf
		pi := 0
		for i := 0; i < count; i++ {
			if i%cancelCheckInterval == 0 && ctx.Err() != nil {
				refineScratchPool.Put(sc)
				return nil, ctx.Err()
			}
			row := ids[i*n : (i+1)*n]
			for k := 0; k < m; k++ {
				for _, id := range row {
					if k != 0 {
						id = in.Relabel(id, k)
					}
					if stamp[id] == epoch {
						u.Union(int(firstOf[id]), pi)
					} else {
						stamp[id] = epoch
						firstOf[id] = int32(pi)
					}
				}
				pi++
			}
		}
		refineScratchPool.Put(sc)
	} else {
		type scan struct {
			reps  map[ptg.ViewID]int // view id -> first in-range pseudo-item
			edges [][2]int           // in-range (first, later) pairs sharing a view
		}
		var (
			scans   []scan
			scansMu sync.Mutex
		)
		err := forEachChunk(ctx, pcount, s.parallelism, func(lo, hi int) error {
			sc := scan{reps: make(map[ptg.ViewID]int, (hi-lo)*n)}
			for pi := lo; pi < hi; pi++ {
				i, k := pi/m, pi%m
				for _, id := range ids[i*n : (i+1)*n] {
					if k != 0 {
						id = in.Relabel(id, k)
					}
					if first, ok := sc.reps[id]; ok {
						if first != pi {
							sc.edges = append(sc.edges, [2]int{first, pi})
						}
					} else {
						sc.reps[id] = pi
					}
				}
			}
			scansMu.Lock()
			scans = append(scans, sc)
			scansMu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		global := make(map[ptg.ViewID]int, pcount*n)
		for _, sc := range scans {
			for _, e := range sc.edges {
				u.Union(e[0], e[1])
			}
			for id, rep := range sc.reps {
				if g, ok := global[id]; ok {
					u.Union(g, rep)
				} else {
					global[id] = rep
				}
			}
		}
	}
	groups := u.Groups()
	d := &Decomposition{
		Space:  s,
		CompOf: make([]int, pcount),
		Comps:  make([]Component, len(groups)),
		Mult:   m,
	}
	for ci, members := range groups {
		for _, i := range members {
			d.CompOf[i] = ci
		}
	}
	if err := forEachChunk(ctx, len(groups), s.parallelism, func(lo, hi int) error {
		for ci := lo; ci < hi; ci++ {
			d.Comps[ci] = summarize(s, groups[ci])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// summarize folds a component's summary masks straight off the columns:
// HeardByAll is a row fold over the heard column, inputs come through the
// O(1) root-ancestor lookup.
func summarize(s *Space, members []int) Component {
	if s.sym != nil {
		return summarizePseudo(s, members)
	}
	n := s.N()
	full := graph.AllNodes(n)
	c := Component{
		Members:       members,
		Broadcasters:  full,
		UniformInputs: full,
	}
	// Valences are input values, so the domain is tiny; a bitmask replaces
	// the per-component set allocation. Values ≥ 64 (domains that large
	// never fit a prefix-space enumeration anyway) spill into a slice.
	var vmask uint64
	var vbig []int
	first := s.Inputs(members[0])
	for _, i := range members {
		if v := s.Valence(i); v >= 0 {
			if v < 64 {
				vmask |= 1 << uint(v)
			} else {
				vbig = append(vbig, v)
			}
		}
		// A process p stays a broadcaster only if everyone heard it by the
		// horizon in this run.
		c.Broadcasters &= s.HeardByAll(i)
		in := s.Inputs(i)
		for p := 0; p < n; p++ {
			if in[p] != first[p] {
				c.UniformInputs &^= 1 << uint(p)
			}
		}
	}
	c.Valences = valenceList(vmask, vbig)
	return c
}

// summarizePseudo is summarize over pseudo-item members (i·m+k) of a
// quotiented space. Valence is relabel-invariant (a run is v-valent iff
// its inputs are uniformly v, and relabeling permutes positions without
// changing the multiset); heard masks and input vectors permute, so the
// folds go through pseudoHeardByAll and the inverse-permuted rep inputs.
func summarizePseudo(s *Space, members []int) Component {
	n := s.N()
	m := s.sym.m
	g := s.sym.group
	full := graph.AllNodes(n)
	c := Component{
		Members:       members,
		Broadcasters:  full,
		UniformInputs: full,
	}
	var vmask uint64
	var vbig []int
	fi, fk := members[0]/m, members[0]%m
	firstIn, firstInv := s.Inputs(fi), g.Inv(fk)
	for _, pi := range members {
		i, k := pi/m, pi%m
		if v := s.Valence(i); v >= 0 {
			if v < 64 {
				vmask |= 1 << uint(v)
			} else {
				vbig = append(vbig, v)
			}
		}
		c.Broadcasters &= s.pseudoHeardByAll(i, k)
		in, inv := s.Inputs(i), g.Inv(k)
		for p := 0; p < n; p++ {
			if in[inv[p]] != firstIn[firstInv[p]] {
				c.UniformInputs &^= 1 << uint(p)
			}
		}
	}
	c.Valences = valenceList(vmask, vbig)
	return c
}

// valenceList expands the valence bitmask (plus the rare ≥ 64 spill) into
// the ascending value list of a Component.
func valenceList(vmask uint64, vbig []int) []int {
	if vmask == 0 && len(vbig) == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount64(vmask)+len(vbig))
	for m := vmask; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	if len(vbig) > 0 {
		sort.Ints(vbig)
		for _, v := range vbig {
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
		}
	}
	return out
}

// MixedComponents returns the indices of components containing valent runs
// of two or more values.
func (d *Decomposition) MixedComponents() []int {
	var out []int
	for ci := range d.Comps {
		if d.Comps[ci].Mixed() {
			out = append(out, ci)
		}
	}
	return out
}

// ValentComponentsBroadcastable reports whether every component containing
// at least one valent run has a broadcaster whose input is uniform across
// the component — the finite-resolution form of the Theorem 5.11 / 6.6
// criterion.
func (d *Decomposition) ValentComponentsBroadcastable() bool {
	for ci := range d.Comps {
		c := &d.Comps[ci]
		if len(c.Valences) == 0 {
			continue
		}
		if c.Broadcasters&c.UniformInputs == 0 {
			return false
		}
	}
	return true
}

// CrossValenceLevel returns the largest agreement level L over pairs of
// runs lying in differently-valent regions (one in a component with
// valence v, one with valence w ≠ v), i.e. the minimum distance between the
// decision-relevant regions is 2^-L. It returns 0 if there are no such
// pairs (then the second return is false).
//
// The O(|S|²) pair scan is pre-filtered and parallelized: each component's
// valence set is canonicalized to a small signature id, items in
// valence-free components are dropped up front, a pair whose components
// share a signature is skipped on an integer compare — before any view is
// touched — and the surviving pairs are spread over the space's worker
// pool, with each item's Views adapter materialized exactly once.
//
// For compact solvable adversaries this level stays bounded as the horizon
// grows (Fig. 4: decision sets have positive distance); for non-compact
// adversaries it grows without bound (Fig. 5: distance-0 limits).
//
//topocon:allow ctxflow -- pre-context API over a bounded CPU-only scan; the worker pool's context parameter is vacuous here (no cancellation point, no error path)
func (d *Decomposition) CrossValenceLevel() (int, bool) {
	s := d.Space
	sig := make([]int32, len(d.Comps))
	sigIDs := make(map[string]int32)
	for ci := range d.Comps {
		vs := d.Comps[ci].Valences
		if len(vs) == 0 {
			sig[ci] = -1
			continue
		}
		key := fmt.Sprint(vs)
		id, ok := sigIDs[key]
		if !ok {
			id = int32(len(sigIDs))
			sigIDs[key] = id
		}
		sig[ci] = id
	}
	if len(sigIDs) < 2 {
		// All valent components carry the same valence set: no pair can
		// differ, and no view needs materializing.
		return 0, false
	}
	var items []int
	for i := 0; i < len(d.CompOf); i++ {
		if sig[d.CompOf[i]] >= 0 {
			items = append(items, i)
		}
	}
	views := make([]*ptg.Views, len(items))
	for k, i := range items {
		views[k] = d.itemViews(i)
	}
	best := -1
	var mu sync.Mutex
	// The background context never cancels and the workers never error, so
	// the pool's error return is vacuous here.
	_ = forEachChunk(context.Background(), len(items), s.parallelism, func(lo, hi int) error {
		local := -1
		for a := lo; a < hi; a++ {
			ca := d.CompOf[items[a]]
			sa := sig[ca]
			for b := a + 1; b < len(items); b++ {
				cb := d.CompOf[items[b]]
				if cb == ca || sig[cb] == sa {
					continue
				}
				if l := ptg.MinAgreeLevel(views[a], views[b]); l > local {
					local = l
				}
			}
		}
		mu.Lock()
		if local > best {
			best = local
		}
		mu.Unlock()
		return nil
	})
	if best < 0 {
		return 0, false
	}
	return best, true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DiameterLevel returns the diameter of component ci in exponent form:
// the smallest agreement level over member pairs, so the diameter
// (Definition 5.7) is 2^-level. The second return is false for singleton
// components (diameter 0, no pairs).
//
// Theorem 5.9 predicts level ≥ 1 (diameter ≤ 1/2) for any connected
// broadcastable set.
func (d *Decomposition) DiameterLevel(ci int) (int, bool) {
	members := d.Comps[ci].Members
	if len(members) < 2 {
		return 0, false
	}
	views := make([]*ptg.Views, len(members))
	for a, i := range members {
		views[a] = d.itemViews(i)
	}
	worst := -1
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			l := ptg.MinAgreeLevel(views[a], views[b])
			if worst < 0 || l < worst {
				worst = l
			}
		}
	}
	return worst, true
}
