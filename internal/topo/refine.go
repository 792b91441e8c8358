package topo

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"topocon/internal/uf"
)

// refineScratch is the reusable dense bucket table of Refine and
// DecomposeCtx, indexed by view orbit id (ViewID / |G|, the
// ViewID itself under the trivial group). Entries are validated by epoch
// instead of being cleared: the epoch counter is monotone across uses (one
// epoch per parent component orbit in Refine, one per DecomposeCtx call),
// so stale entries from earlier
// refinements never match. The table only ever grows (with geometric
// headroom, so a session whose interner grows every horizon still
// amortizes), and pooling keeps it alive across calls instead of feeding
// the garbage collector a table-sized allocation per horizon.
type refineScratch struct {
	entries []bucketEntry
	epoch   int32
	// The space being scanned, set by acquire.
	s   *Space
	grp uf.Group
	m   int32
	n   int
}

// bucketEntry is one bucket of the scratch table, packed so that a lookup
// touches one cache line.
type bucketEntry struct {
	epoch int32 // epoch of the entry's last write
	first int32 // bucket representative (item index)
	// label is the element reaching the bucket's view from its orbit's
	// stored cone, for first.
	label uint8
}

var refineScratchPool = sync.Pool{New: func() any { return new(refineScratch) }}

// acquire readies the table for scanning s with epochs more epochs,
// sized by the interner's orbit count (every view of s is interned by
// now), re-zeroing only on int32 epoch wraparound (once per ~2 billion
// components).
func (sc *refineScratch) acquire(s *Space, epochs int32) {
	sc.s, sc.grp, sc.n = s, s.Group(), s.N()
	sc.m = int32(sc.grp.Order())
	size := s.Interner.Size()
	if cap(sc.entries) < size {
		// No copy: stale entries are unreadable by design (their epochs
		// are below every future epoch), so a fresh zeroed table is
		// equivalent and cheaper.
		sc.entries = make([]bucketEntry, size, size+size/4+64)
	} else {
		sc.entries = sc.entries[:size]
	}
	if sc.epoch > math.MaxInt32-epochs-1 {
		for i := range sc.entries {
			sc.entries[i].epoch = 0
		}
		sc.epoch = 0
	}
}

// release returns the scratch to the pool, dropping its space.
func (sc *refineScratch) release() {
	sc.s = nil
	refineScratchPool.Put(sc)
}

// bucket adds the items offsets[p]..offsets[p+1]-1, for every p in spans,
// to the current epoch's buckets: Refine passes a parent component orbit's
// members and the child space's parent offsets, DecomposeCtx a single
// range of items. A view with ID c·|G|+ℓ is the twin σ_ℓ of its orbit's
// stored cone C, so σ_ℓ⁻¹·(run i) holds C: the item joins the bucket's
// first item f by σ_{ℓ∘ℓ_f⁻¹}·(run f) ~ run i. The first item of a bucket
// also records the cone's stabilizer, conjugated by ℓ — twins of run i
// that fix its copy of the view share it — and every item records its own
// stabilizer.
//
//topocon:allocfree
func (sc *refineScratch) bucket(u *uf.Labelled, spans, offsets []int) {
	s, grp, m, n := sc.s, sc.grp, sc.m, sc.n
	ids := s.fr.ids
	entries, epoch := sc.entries, sc.epoch
	for _, p := range spans {
		for i := offsets[p]; i < offsets[p+1]; i++ {
			for _, id := range ids[i*n : (i+1)*n] {
				c, l := orbitOf(id, m)
				if e := &entries[c]; e.epoch == epoch {
					u.Union(int(e.first), i, grp.Quo(l, e.label))
					continue
				}
				entries[c] = bucketEntry{epoch, int32(i), l}
				if m > 1 {
					if st := s.Interner.OrbitStab(int(c)); st != 1 {
						u.AddStab(i, grp.Conj(l, st))
					}
				}
			}
			if m > 1 {
				u.AddStab(i, s.stab[i])
			}
		}
	}
}

// Refine computes the decomposition of child — a space produced by a
// one-round Extend of the decomposed space — incrementally from the parent
// partition, instead of re-bucketing the whole space from scratch.
//
// Soundness rests on the refinement property (package ptg, Definition 6.2):
// views only ever refine as the horizon grows, so ε-approximation
// components only ever split. Concretely, two child runs sharing a time-t
// view share the interned node's children, which include (self-loops are
// mandatory) their parents' time-(t-1) views — so related children always
// descend from one parent component, and related twins of children from
// one parent component orbit. Refine therefore
//
//   - seeds the child union-find from the parent partition: view buckets
//     are built per parent component orbit, never globally, so splits are
//     detected locally and the bucket table needs no global hash map —
//     orbit ids are dense, so a pooled epoch-stamped array serves every
//     component orbit;
//   - materializes components without the map-based grouping: set roots
//     are item indices, so a dense root table plus a two-sweep arena fill
//     yields the orbits in ascending-smallest-member order, CompOf and the
//     canonical labels in O(items);
//   - reuses the parent component's summaries where the component orbit
//     did not split — a single child orbit whose stabilizer is as large as
//     the parent's, so each parent component holds exactly one child
//     component: Valences and UniformInputs are horizon-independent and
//     carry over (relabeled into the child's base component), and
//     Broadcasters only ever grow (heard-sets are monotone), so only
//     not-yet-broadcasters are rescanned.
//
// The result is identical — partition, component order, CompOf, Labels,
// stabilizers, Valences, Broadcasters, UniformInputs — to
// DecomposeCtx(ctx, child), which remains the from-scratch reference
// (asserted by TestRefineMatchesDecompose over every seed adversary family
// and the scenarios/ corpus).
//
// The receiver and child are not modified; on cancellation Refine returns
// ctx.Err() and can simply be called again.
//
// Refine errors if child was not produced by a one-round Extend of the
// decomposed space (from-scratch builds carry no parent linkage).
//
//topocon:allocfree
func (d *Decomposition) Refine(ctx context.Context, child *Space) (*Decomposition, error) {
	parent := d.Space
	if child == nil || child.parentOffsets == nil ||
		child.fr.prev != parent.fr ||
		child.Horizon != parent.Horizon+1 ||
		len(child.parentOffsets) != parent.Len()+1 ||
		child.parentOffsets[parent.Len()] != child.Len() ||
		child.Interner != parent.Interner ||
		child.sym != parent.sym ||
		len(d.Labels) != parent.Len() {
		return nil, fmt.Errorf("topo: Refine: child is not a one-round extension of the decomposed horizon-%d space", parent.Horizon)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u := uf.NewLabelled(child.Len(), child.Group())
	child.fr.fault()
	offsets := child.parentOffsets
	sc := refineScratchPool.Get().(*refineScratch)
	sc.acquire(child, int32(len(d.Comps)))
	defer sc.release()
	for ci := range d.Comps {
		if ci%cancelCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sc.epoch++
		sc.bucket(u, d.Comps[ci].Members, offsets)
	}
	res := materialize(child, u, 2*len(d.Comps))
	// Each child orbit lies in the parent orbit of its smallest member's
	// parent; count the child orbits per parent orbit to find the splits.
	parentOf := child.fr.parentOf
	splits := make([]int32, len(d.Comps))
	for gi := range res.Comps {
		splits[d.CompOf[parentOf[res.Comps[gi].Members[0]]]]++
	}
	// Summaries, seeded from the parent component's. Both summary masks are
	// monotone under refinement — heard-sets only grow, and input uniformity
	// over a subset of a component's runs only widens — so whether or not
	// the component split, only the processes that were not yet
	// broadcasters / uniform in the parent need rescanning, and an unsplit
	// component keeps its Valences and UniformInputs. The child's base
	// component holds its smallest member's run, whose prefix — the
	// parent item q — lies in the twin σ_{L_q}⁻¹ of the parent's base
	// component, so the parent's masks are relabeled by L_q⁻¹ first.
	grp := child.Group()
	for gi := range res.Comps {
		c := &res.Comps[gi]
		q := int(parentOf[c.Members[0]])
		pc := &d.Comps[d.CompOf[q]]
		split := splits[d.CompOf[q]] > 1 || bits.OnesCount64(c.Stab) != bits.OnesCount64(pc.Stab)
		res.refreshSummary(c, pc, grp.Inv(d.Labels[q]), split)
	}
	return res, nil
}

// refreshSummary carries parent component pc's summary one horizon deeper
// onto child component c, whose base component descends from the twin σ_x
// of pc's base component. If c did not split off pc, its runs are exactly
// the children of that twin's runs, so the input-derived summaries
// (Valences, UniformInputs) are unchanged, and Broadcasters — monotone
// under refinement, since heard-sets only grow — needs a rescan only for
// the processes that were not broadcasters yet. A split component rescans
// everything but the parent's broadcasters and uniform inputs.
func (d *Decomposition) refreshSummary(c, pc *Component, x uint8, split bool) {
	s := d.Space
	seedB := s.permuteMask(pc.Broadcasters, x)
	seedU := s.permuteMask(pc.UniformInputs, x)
	if !split {
		c.Valences = append([]int(nil), pc.Valences...)
		c.UniformInputs = seedU
	}
	d.summarize(c, seedB, seedU, split)
}
