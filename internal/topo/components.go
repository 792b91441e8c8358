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

// Component is one component orbit of the horizon-t prefix space in the
// minimum topology. A connected component of the full space — equivalently
// the ε-approximation PS^ε (ε = 2^-t, Definition 6.2) of each of its
// members — is mapped by every element σ of the symmetry group, a process
// automorphism paired with an input-value permutation, onto a component
// again (comp(σ·r) = σ·comp(r)), so components come in orbits. A
// Component describes one component C of its orbit, its base; the orbit
// holds |G|/|Stab| components, the twins σ·C over the cosets of Stab. Under
// the trivial group every orbit is a single component.
type Component struct {
	// Members are the representative item indices of the orbit, ascending:
	// item i is a member iff some twin of run i lies in C, and the twins of
	// run i in C are σ_h·σ_g·(run i) for h in Stab, with g the item's
	// Decomposition.Labels entry. The smallest member's run lies in C.
	// The Members of all components are windows of one permutation of
	// the item indices.
	Members []int32
	// Stab is the stabilizer of C, a subgroup of the symmetry group as a
	// bitmask over element indices: bit h is set iff σ_h·C = C. It is 1
	// (the identity alone) under the trivial group.
	Stab uint64
	// Valences lists the distinct values v for which the component
	// contains a v-valent run, ascending. The twin (σ, π)·C lists the
	// π-images: a v-valent run's twin is π(v)-valent.
	Valences []int
	// Broadcasters is the bitmask of processes p such that in every run of
	// C, every process has heard p by the horizon (Definition 5.8 at
	// finite resolution). The twin σ·C has the relabeled mask.
	Broadcasters uint64
	// UniformInputs is the bitmask of processes p whose input x_p is the
	// same across all runs of C; the twin σ·C has the relabeled mask, its
	// inputs relabeled by the value part. Theorem 5.9 predicts
	// Broadcasters ⊆ UniformInputs for connected components.
	UniformInputs uint64
}

// Mixed reports whether the component contains valent runs of at least two
// different values — the obstruction of Corollary 5.6.
func (c *Component) Mixed() bool { return len(c.Valences) >= 2 }

// Decomposition is the component structure of a space, one Component per
// component orbit. It is computed on the space's orbit representatives
// alone (DESIGN.md §13); expanding every orbit into its twins reproduces
// the full space's components exactly.
type Decomposition struct {
	Space *Space
	// CompOf maps each item index to its component orbit.
	CompOf []int32
	// Labels[i] is the group element g for which the twin σ_g·(run i) lies
	// in the base component of orbit CompOf[i]: the least element of the
	// double coset Stab·g·Stab(i), so 0 for each orbit's smallest member
	// and for every item under the trivial group.
	Labels []uint8
	// Comps are the component orbits, ordered by smallest member.
	Comps []Component
}

// OrbitSize returns the number of full-space components orbit ci stands
// for: |G| / |Stab|.
func (d *Decomposition) OrbitSize(ci int) int {
	return d.Space.sym.Index(d.Comps[ci].Stab)
}

// FullComponents returns the number of connected components of the full
// space, the sum of the orbit sizes.
func (d *Decomposition) FullComponents() int {
	total := 0
	for ci := range d.Comps {
		total += d.OrbitSize(ci)
	}
	return total
}

// FullMixedComponents returns the number of full-space components mixing
// two or more valences.
func (d *Decomposition) FullMixedComponents() int {
	total := 0
	for _, ci := range d.MixedComponents() {
		total += d.OrbitSize(ci)
	}
	return total
}

// DecomposeCtx computes the connected components of the space at its
// horizon: two runs are related iff some process has the same time-t view
// in both, and components are the transitive closure classes. This is
// exactly the iterated ball-union construction of Definition 6.2
// restricted to the horizon, because view equality at the horizon implies
// view equality at all earlier times (refinement property, package ptg).
// It returns ctx.Err() on cancellation.
//
// DecomposeCtx is the only decomposer: a session decomposes every horizon
// with it, and a resumed session decomposes its restored head. The scan is
// sequential and reads the horizon's ViewID column directly — no per-item
// view objects are touched.
//
// Views are bucketed by their orbit id (ViewID / |G|, shared by all twins
// of a view) in a group-labelled union-find over the representatives
// (uf.Labelled). A view with ID c·|G|+ℓ is the twin σ_ℓ of its orbit's
// stored cone C, so σ_ℓ⁻¹·(run i) holds C: the item joins the bucket's
// first item f by σ_{ℓ∘ℓ_f⁻¹}·(run f) ~ run i. The first item of a bucket
// also records the cone's stabilizer, conjugated by ℓ — twins of run i
// that fix its copy of the view share it — and every item records its own
// stabilizer. Under the trivial group every label is the identity and the
// scan is a plain bucket union.
//
//topocon:allocfree
func DecomposeCtx(ctx context.Context, s *Space) (*Decomposition, error) {
	count, n := s.Len(), s.N()
	grp := s.sym
	m := int32(grp.Order())
	u := uf.NewLabelled(count, grp)
	s.fr.fault()
	ids := s.fr.ids
	// The buckets are the orbits of the head's own views, a dense range of
	// orbit ids, so a pooled table over that range replaces a hash map.
	sc := bucketScratchPool.Get().(*bucketScratch)
	defer bucketScratchPool.Put(sc)
	cLo := sc.acquire(ids, m)
	for i := 0; i < count; i++ {
		if i%cancelCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		row := ids[i*n : (i+1)*n]
		if m == 1 {
			for _, id := range row {
				k := int32(id) - cLo
				if f := sc.first[k]; f != 0 {
					u.Union(int(f-1), i, 0)
					continue
				}
				sc.first[k] = int32(i + 1)
			}
			continue
		}
		for _, id := range row {
			c, l := orbitOf(id, m)
			b := &sc.labelled[c-cLo]
			if b.first != 0 {
				u.Union(int(b.first-1), i, grp.Quo(l, b.label))
				continue
			}
			*b = bucket{int32(i + 1), l}
			if st := s.Interner.OrbitStab(int(c)); st != 1 {
				u.AddStab(i, grp.Conj(l, st))
			}
		}
		u.AddStab(i, s.stab[i])
	}
	d := materialize(s, u)
	for ci := range d.Comps {
		d.summarize(&d.Comps[ci])
	}
	return d, nil
}

// Refine returns DecomposeCtx(ctx, child).
//
// Deprecated: every horizon is decomposed from scratch with DecomposeCtx.
// Refine stays only because the benchmark module in topobench/ still
// calls it.
func (d *Decomposition) Refine(ctx context.Context, child *Space) (*Decomposition, error) {
	return DecomposeCtx(ctx, child)
}

// bucketScratch is the reusable bucket table of DecomposeCtx, indexed by
// view orbit id (ViewID / |G|) less the least orbit id among the scanned
// views. A bucket holds its first item plus one, 0 while it is empty.
// Under the trivial group the table is first, a plain int32 per orbit;
// under a nontrivial group it is labelled, whose buckets also hold the
// element reaching the first item's view from its orbit's stored cone, in
// the same 8 bytes, so a lookup reads one cache line. The tables only ever
// grow (with headroom, so a session whose rounds grow every horizon still
// amortizes), and pooling keeps them alive across calls instead of
// feeding the garbage collector a table-sized allocation per horizon.
type bucketScratch struct {
	first    []int32
	labelled []bucket
}

// bucket is one bucket of the labelled table.
type bucket struct {
	first int32
	label uint8
}

var bucketScratchPool = sync.Pool{New: func() any { return new(bucketScratch) }}

// acquire readies an empty table over the orbits of the views in ids under
// a group of order m and returns the least of their orbit ids. The range
// runs from the least to the greatest view of the scan, not over the
// round's own IDBound range: on an interner shared with other spaces, some
// of a round's views were stored first by another space.
func (sc *bucketScratch) acquire(ids []ptg.ViewID, m int32) int32 {
	if len(ids) == 0 {
		return 0
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	cLo, _ := orbitOf(lo, m)
	cHi, _ := orbitOf(hi, m)
	size := int(cHi-cLo) + 1
	if m == 1 {
		sc.first = resetTable(sc.first, size)
	} else {
		sc.labelled = resetTable(sc.labelled, size)
	}
	return cLo
}

// resetTable returns a zeroed table of size entries, reusing t's storage
// when it is large enough.
func resetTable[T any](t []T, size int) []T {
	if cap(t) < size {
		return make([]T, size, size+size/4+64)
	}
	t = t[:size]
	clear(t)
	return t
}

// orbitOf splits a view ID into its orbit id and the element reaching it
// from the orbit's stored cone (ptg's c·|G| + ℓ encoding).
func orbitOf(id ptg.ViewID, m int32) (int32, uint8) {
	if m == 1 {
		return int32(id), 0
	}
	c := int32(id) / m
	return c, uint8(int32(id) - c*m)
}

// materialize turns the labelled union-find over the space's items into
// component orbits without the map-based grouping. An ascending sweep
// numbers the orbits by smallest member and fills CompOf, which doubles as
// the root → orbit table while it sweeps: a root's entry is written when
// its first item is met, before the sweep reaches the root itself, and
// every other entry only when the sweep reaches it. A counting pass then
// lays the members out as windows of one permutation, and a sweep over the
// orbits re-bases each member's label onto the orbit's smallest member and
// reduces it to its canonical coset element. Summaries are left to the
// caller.
func materialize(s *Space, u *uf.Labelled) *Decomposition {
	count := s.Len()
	grp := s.sym
	d := &Decomposition{
		Space:  s,
		CompOf: make([]int32, count),
		Labels: make([]uint8, count),
	}
	for i := range d.CompOf {
		d.CompOf[i] = -1
	}
	var sizes, roots []int32
	for i := 0; i < count; i++ {
		r, g := u.Find(i)
		ci := d.CompOf[r]
		if ci < 0 {
			ci = int32(len(sizes))
			sizes = append(sizes, 0)
			roots = append(roots, int32(r))
			d.CompOf[r] = ci
		}
		sizes[ci]++
		d.CompOf[i] = ci
		d.Labels[i] = g
	}
	d.Comps = make([]Component, len(sizes))
	perm := make([]int32, count)
	for ci, size := range sizes {
		d.Comps[ci].Members, perm = perm[:0:size], perm[size:]
	}
	for i, ci := range d.CompOf {
		d.Comps[ci].Members = append(d.Comps[ci].Members, int32(i))
	}
	for ci := range d.Comps {
		c := &d.Comps[ci]
		// σ_g·run i ~ root and σ_g0·first ~ root give σ_{g0⁻¹∘g}·run i ~
		// first: the twin of run i in the base component, whose stabilizer
		// is the root's conjugated by g0⁻¹.
		x := grp.Inv(d.Labels[c.Members[0]])
		c.Stab = u.Stab(int(roots[ci]))
		if c.Stab != 1 {
			c.Stab = grp.Conj(x, c.Stab)
		}
		for _, i := range c.Members {
			l := d.Labels[i]
			if x != 0 {
				l = grp.Mul(x, l)
			}
			if st := s.stab[i]; c.Stab != 1 || st != 1 {
				l = grp.MinCoset(c.Stab, l, st)
			}
			d.Labels[i] = l
		}
	}
	return d
}

// summarize folds component orbit c's summary masks straight off the
// columns: HeardByAll folds the heard masks of one view row, inputs come
// through the O(1) root-ancestor lookup. Each member contributes its twin
// in the base component — heard masks and input positions permuted by its
// label's process part, valences and input values by its value part — and
// the folds are then closed under the stabilizer, whose elements permute
// the base component's runs among themselves.
func (d *Decomposition) summarize(c *Component) {
	s := d.Space
	grp := s.sym
	bc := graph.AllNodes(s.fr.n)
	uc := bc
	var vmask uint64
	var vbig []int
	first := s.Inputs(int(c.Members[0])) // its label is the identity
	prevRoot, prevL := int32(-1), uint8(0)
	for _, member := range c.Members {
		i := int(member)
		l := d.Labels[i]
		if bc != 0 {
			bc &= s.permuteMask(s.HeardByAll(i), l)
		}
		// Inputs and valence are the root's, so a member repeating the
		// previous member's root and label adds nothing to them.
		r := s.fr.rootOf[i]
		if r == prevRoot && l == prevL {
			continue
		}
		prevRoot, prevL = r, l
		if v := int(s.fr.base.valence[r]); v >= 0 {
			vmask, vbig = addValence(vmask, vbig, grp.Value(int(l), v))
		}
		if uc != 0 {
			// Process p of the twin σ_l·run holds π_l of the run's input
			// at σ_l⁻¹(p).
			in := s.Inputs(i)
			var inv []int
			if l != 0 {
				inv = grp.InvPerm(int(l))
			}
			for mm := uc; mm != 0; mm &= mm - 1 {
				p := bits.TrailingZeros64(mm)
				x := in[p]
				if inv != nil {
					x = grp.Value(int(l), in[inv[p]])
				}
				if x != first[p] {
					uc &^= 1 << uint(p)
				}
			}
		}
	}
	c.Broadcasters = bc
	c.UniformInputs = uc
	if c.Stab != 1 {
		// The base component is the union of the σ_h-images of the folded
		// twins: p stays a broadcaster iff every σ_h(p) is one, stays
		// uniform iff every σ_h(p) is uniform with π_h of p's input, and
		// every valence v brings π_h(v).
		vs := valenceList(vmask, vbig)
		for rest := c.Stab &^ 1; rest != 0; rest &= rest - 1 {
			h := bits.TrailingZeros64(rest)
			perm := grp.Elem(h)
			for mm := c.Broadcasters; mm != 0; mm &= mm - 1 {
				p := bits.TrailingZeros64(mm)
				if c.Broadcasters&(1<<uint(perm[p])) == 0 {
					c.Broadcasters &^= 1 << uint(p)
				}
			}
			for mm := c.UniformInputs; mm != 0; mm &= mm - 1 {
				p := bits.TrailingZeros64(mm)
				if q := perm[p]; c.UniformInputs&(1<<uint(q)) == 0 || first[q] != grp.Value(h, first[p]) {
					c.UniformInputs &^= 1 << uint(p)
				}
			}
			for _, v := range vs {
				vmask, vbig = addValence(vmask, vbig, grp.Value(h, v))
			}
		}
	}
	c.Valences = valenceList(vmask, vbig)
}

// addValence adds value v to a valence bitmask, or to the spill list of
// values ≥ 64.
func addValence(vmask uint64, vbig []int, v int) (uint64, []int) {
	if v >= 64 {
		return vmask, append(vbig, v)
	}
	return vmask | 1<<uint(v), vbig
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
// The O(|S|²) pair scan is pre-filtered: each component's valence set is
// canonicalized to a small signature id, items in valence-free components
// are dropped up front, a pair whose components share a signature is
// skipped on an integer compare — before any view is touched — and each
// run's Views adapter is materialized exactly once. Under a quotient the
// runs are the distinct twins of every representative.
//
// For compact solvable adversaries this level stays bounded as the horizon
// grows (Fig. 4: decision sets have positive distance); for non-compact
// adversaries it grows without bound (Fig. 5: distance-0 limits).
func (d *Decomposition) CrossValenceLevel() (int, bool) {
	s := d.Space
	grp := s.sym
	// sig[ci*m+g] is the signature id of twin g of component orbit ci's
	// base component, whose valences are π_g of the base's.
	m := s.SymOrder()
	sig := make([]int32, len(d.Comps)*m)
	sigIDs := make(map[string]int32)
	vals := make([]int, 0, 8)
	for ci := range d.Comps {
		vs := d.Comps[ci].Valences
		for g := 0; g < m; g++ {
			if len(vs) == 0 {
				sig[ci*m+g] = -1
				continue
			}
			vals = vals[:0]
			for _, v := range vs {
				vals = append(vals, grp.Value(g, v))
			}
			sort.Ints(vals)
			key := fmt.Sprint(vals)
			id, ok := sigIDs[key]
			if !ok {
				id = int32(len(sigIDs))
				sigIDs[key] = id
			}
			sig[ci*m+g] = id
		}
	}
	if len(sigIDs) < 2 {
		// All valent components carry the same valence set: no pair can
		// differ, and no view needs materializing.
		return 0, false
	}
	// The scan runs over full-space runs: every distinct twin of every
	// representative in a valent component. Twin σ_k·(run i) lies in twin
	// σ_{k∘L⁻¹} of its orbit's base component, L the item's label.
	var views []*ptg.Views
	var sigs []int32
	for i := 0; i < s.Len(); i++ {
		ci, li := int(d.CompOf[i]), grp.Inv(d.Labels[i])
		if sig[ci*m] < 0 {
			continue
		}
		for _, k := range s.twinElems(i) {
			views = append(views, s.PseudoViews(i, k))
			sigs = append(sigs, sig[ci*m+int(grp.Mul(uint8(k), li))])
		}
	}
	best := -1
	for a, sa := range sigs {
		for b := a + 1; b < len(views); b++ {
			// Runs of one component share its valence signature, so
			// comparing signatures also skips same-component pairs.
			if sigs[b] == sa {
				continue
			}
			if l := ptg.MinAgreeLevel(views[a], views[b]); l > best {
				best = l
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// DiameterLevel returns the diameter of component ci in exponent form:
// the smallest agreement level over member pairs, so the diameter
// (Definition 5.7) is 2^-level. The second return is false for singleton
// components (diameter 0, no pairs).
//
// Theorem 5.9 predicts level ≥ 1 (diameter ≤ 1/2) for any connected
// broadcastable set.
func (d *Decomposition) DiameterLevel(ci int) (int, bool) {
	// The base component's runs are the twins σ_h·σ_g of each member, for
	// h in the stabilizer and g the member's label.
	c := &d.Comps[ci]
	s := d.Space
	grp := s.sym
	var views []*ptg.Views
	for _, member := range c.Members {
		i := int(member)
		var seen uint64
		for rest := c.Stab; rest != 0; rest &= rest - 1 {
			k := grp.MinCoset(1, grp.Mul(uint8(bits.TrailingZeros64(rest)), d.Labels[i]), s.stab[i])
			if seen&(1<<k) == 0 {
				seen |= 1 << k
				views = append(views, s.PseudoViews(i, int(k)))
			}
		}
	}
	if len(views) < 2 {
		return 0, false
	}
	worst := -1
	for a := 0; a < len(views); a++ {
		for b := a + 1; b < len(views); b++ {
			l := ptg.MinAgreeLevel(views[a], views[b])
			if worst < 0 || l < worst {
				worst = l
			}
		}
	}
	return worst, true
}
