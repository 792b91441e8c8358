package topo

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"topocon/internal/graph"
	"topocon/internal/ptg"
	"topocon/internal/uf"
)

// Component is one component orbit of the horizon-t prefix space in the
// minimum topology. A connected component of the full space — equivalently
// the ε-approximation PS^ε (ε = 2^-t, Definition 6.2) of each of its
// members — is mapped by every process automorphism σ onto a component
// again (comp(σ·r) = σ·comp(r)), so components come in orbits. A
// Component describes one component C of its orbit, its base; the orbit
// holds |G|/|Stab| components, the twins σ·C over the cosets of Stab. Under
// the trivial group every orbit is a single component.
type Component struct {
	// Members are the representative item indices of the orbit, ascending:
	// item i is a member iff some twin of run i lies in C, and the twins of
	// run i in C are σ_h·σ_g·(run i) for h in Stab, with g the item's
	// Decomposition.Labels entry. The smallest member's run lies in C.
	Members []int
	// Stab is the stabilizer of C, a subgroup of the symmetry group as a
	// bitmask over element indices: bit h is set iff σ_h·C = C. It is 1
	// (the identity alone) under the trivial group.
	Stab uint64
	// Valences lists the distinct values v for which the component
	// contains a v-valent run, ascending. Valence is relabel-invariant, so
	// every twin of C has the same list.
	Valences []int
	// Broadcasters is the bitmask of processes p such that in every run of
	// C, every process has heard p by the horizon (Definition 5.8 at
	// finite resolution). The twin σ·C has the relabeled mask.
	Broadcasters uint64
	// UniformInputs is the bitmask of processes p whose input x_p is the
	// same across all runs of C. Theorem 5.9 predicts
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
	CompOf []int
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
	return d.Space.Group().Index(d.Comps[ci].Stab)
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
// DecomposeCtx is the from-scratch decomposer. A session runs it once, on
// its horizon-0 base, whose views are the leaves (p, x_p), and refines
// every later horizon with Decomposition.Refine, which reproduces
// DecomposeCtx exactly. The scan is sequential and reads the horizon's
// ViewID column directly — no per-item view objects are touched.
//
// Views are bucketed by their orbit id (ViewID / |G|, shared by all twins
// of a view) in a group-labelled union-find over the representatives
// (uf.Labelled): an item whose view has orbit label ℓ holds the twin
// σ_ℓ of the bucket's view, so two items in one bucket are joined by the
// quotient of their labels, and a view whose cone has a nontrivial
// stabilizer joins its item to the conjugated twins. Under the trivial
// group every label is the identity and the scan is a plain bucket union.
func DecomposeCtx(ctx context.Context, s *Space) (*Decomposition, error) {
	count := s.Len()
	u := uf.NewLabelled(count, s.Group())
	s.fr.fault()
	// Orbit ids are dense, so a pooled epoch-stamped array (shared with
	// Refine) replaces a hash map; one epoch spans the whole space.
	sc := refineScratchPool.Get().(*refineScratch)
	defer sc.release()
	sc.acquire(s, 1)
	sc.epoch++
	span, bounds := []int{0}, make([]int, 2)
	for lo := 0; lo < count; lo += cancelCheckInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bounds[0], bounds[1] = lo, min(lo+cancelCheckInterval, count)
		sc.bucket(u, span, bounds)
	}
	d := materialize(s, u, 0)
	for ci := range d.Comps {
		d.summarize(&d.Comps[ci], 0, 0, true)
	}
	return d, nil
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
// component orbits without the map-based grouping: roots are item indices,
// so a dense root table and an ascending sweep yield the orbits ordered by
// smallest member and CompOf, and a sweep over the orbits re-bases each
// member's label onto the orbit's smallest member and reduces it to its
// canonical coset element. Summaries are left to the caller.
func materialize(s *Space, u *uf.Labelled, hint int) *Decomposition {
	count := s.Len()
	grp := s.Group()
	d := &Decomposition{
		Space:  s,
		CompOf: make([]int, count),
		Labels: make([]uint8, count),
	}
	rootGroup := make([]int32, count) // group id + 1 of each set root
	sizes := make([]int32, 0, hint)
	roots := make([]int32, 0, hint)
	for i := 0; i < count; i++ {
		r, g := u.Find(i)
		gi := rootGroup[r]
		if gi == 0 {
			sizes = append(sizes, 0)
			roots = append(roots, int32(r))
			gi = int32(len(sizes))
			rootGroup[r] = gi
		}
		sizes[gi-1]++
		d.CompOf[i] = int(gi - 1)
		d.Labels[i] = g
	}
	d.Comps = make([]Component, len(sizes))
	arena := make([]int, count)
	for gi, size := range sizes {
		d.Comps[gi].Members, arena = arena[:0:size], arena[size:]
	}
	for i, gi := range d.CompOf {
		d.Comps[gi].Members = append(d.Comps[gi].Members, i)
	}
	for gi := range d.Comps {
		c := &d.Comps[gi]
		// σ_g·run i ~ root and σ_g0·first ~ root give σ_{g0⁻¹∘g}·run i ~
		// first: the twin of run i in the base component, whose stabilizer
		// is the root's conjugated by g0⁻¹.
		x := grp.Inv(d.Labels[c.Members[0]])
		c.Stab = u.Stab(int(roots[gi]))
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
// columns: HeardByAll is a row fold over the heard column, inputs come
// through the O(1) root-ancestor lookup. Each member contributes its twin
// in the base component — heard masks and input positions permuted by its
// label — and the folds are then closed under the stabilizer, whose
// elements permute the base component's runs among themselves.
//
// seedB and seedU are processes already known to be broadcasters /
// uniform (Refine seeds them from the parent component, since both masks
// only widen under refinement); only the others are rescanned. With
// rescan false the caller has set c.Valences and c.UniformInputs (an
// unsplit component keeps its parent's) and only Broadcasters is folded.
func (d *Decomposition) summarize(c *Component, seedB, seedU uint64, rescan bool) {
	s := d.Space
	full := graph.AllNodes(s.fr.n)
	bc := full &^ seedB
	uc := full &^ seedU
	if !rescan {
		uc = 0
	}
	var vmask uint64
	var vbig []int
	var first []int
	if uc != 0 || c.Stab != 1 {
		first = s.Inputs(c.Members[0])
	}
	for _, i := range c.Members {
		if !rescan && bc == 0 {
			break
		}
		l := d.Labels[i]
		if rescan {
			if v := s.Valence(i); v >= 64 {
				vbig = append(vbig, v)
			} else if v >= 0 {
				vmask |= 1 << uint(v)
			}
		}
		if bc != 0 {
			bc &= s.permuteMask(s.HeardByAll(i), l)
		}
		if uc != 0 {
			// Process p of the twin σ_l·run holds the run's input at
			// σ_l⁻¹(p).
			in := s.Inputs(i)
			var inv []int
			if l != 0 {
				inv = s.sym.group.Inv(int(l))
			}
			for mm := uc; mm != 0; mm &= mm - 1 {
				p := bits.TrailingZeros64(mm)
				q := p
				if inv != nil {
					q = inv[p]
				}
				if in[q] != first[p] {
					uc &^= 1 << uint(p)
				}
			}
		}
	}
	c.Broadcasters = seedB | bc
	if rescan {
		c.Valences = valenceList(vmask, vbig)
		c.UniformInputs = seedU | uc
	}
	if c.Stab == 1 {
		return
	}
	// The base component is the union of the σ_h-images of the folded
	// twins: p stays a broadcaster iff every σ_h(p) is one, and stays
	// uniform iff every σ_h(p) is uniform with the same input.
	for rest := c.Stab &^ 1; rest != 0; rest &= rest - 1 {
		perm := s.sym.group.Elem(bits.TrailingZeros64(rest))
		for mm := c.Broadcasters; mm != 0; mm &= mm - 1 {
			p := bits.TrailingZeros64(mm)
			if c.Broadcasters&(1<<uint(perm[p])) == 0 {
				c.Broadcasters &^= 1 << uint(p)
			}
		}
		for mm := c.UniformInputs; mm != 0; mm &= mm - 1 {
			p := bits.TrailingZeros64(mm)
			if q := perm[p]; c.UniformInputs&(1<<uint(q)) == 0 || first[q] != first[p] {
				c.UniformInputs &^= 1 << uint(p)
			}
		}
	}
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
	// The scan runs over full-space runs: every distinct twin of every
	// representative in a valent component.
	var views []*ptg.Views
	var sigs []int32
	for i := 0; i < s.Len(); i++ {
		sg := sig[d.CompOf[i]]
		if sg < 0 {
			continue
		}
		for _, k := range s.twinElems(i) {
			views = append(views, s.PseudoViews(i, k))
			sigs = append(sigs, sg)
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
	// The base component's runs are the twins σ_h·σ_g of each member, for
	// h in the stabilizer and g the member's label.
	c := &d.Comps[ci]
	s := d.Space
	grp := s.Group()
	var views []*ptg.Views
	for _, i := range c.Members {
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
