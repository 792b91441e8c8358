package topo

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"topocon/internal/graph"
	"topocon/internal/uf"
)

// refineScratch is the reusable dense bucket table of Refine, indexed by
// interned ViewID. Entries are validated by epoch instead of being cleared:
// the epoch counter is monotone across uses (one epoch per parent
// component), so stale entries from earlier refinements never match. The
// tables only ever grow (with geometric headroom, so a session whose
// interner grows every horizon still amortizes), and pooling keeps them
// alive across Refine calls instead of feeding the garbage collector two
// table-sized allocations per horizon.
type refineScratch struct {
	stamp   []int32 // epoch of the entry's last write
	firstOf []int32 // bucket representative (child item index)
	epoch   int32
}

var refineScratchPool = sync.Pool{New: func() any { return new(refineScratch) }}

// acquire readies the tables for size view IDs and epochs more epochs,
// re-zeroing only on int32 epoch wraparound (once per ~2 billion
// components).
func (sc *refineScratch) acquire(size int, epochs int32) {
	if cap(sc.stamp) < size {
		// No copy: stale entries are unreadable by design (their epochs
		// are below every future epoch), so fresh zeroed tables are
		// equivalent and cheaper.
		sc.stamp = make([]int32, size, size+size/4+64)
		sc.firstOf = make([]int32, size, size+size/4+64)
	} else {
		sc.stamp = sc.stamp[:size]
		sc.firstOf = sc.firstOf[:size]
	}
	if sc.epoch > math.MaxInt32-epochs-1 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 0
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
// descend from one parent component. Refine therefore
//
//   - seeds the child union-find from the parent partition: view buckets
//     are built per parent component, never globally, so splits are
//     detected locally and the bucket table needs no global hash map —
//     interned ViewIDs are dense, so a pooled epoch-stamped array serves
//     every component;
//   - materializes components without the map-based uf.Groups: set roots
//     are item indices, so a dense root table plus a two-sweep arena fill
//     yields the groups in the same ascending-smallest-member order, the
//     CompOf labels, each group's parent component and the split counts in
//     O(items);
//   - reuses the parent component's summaries where the component did not
//     split: Valences and UniformInputs are horizon-independent and carry
//     over verbatim, and Broadcasters only ever grow (heard-sets are
//     monotone), so only not-yet-broadcasters are rescanned, with an early
//     exit once none can still join.
//
// The result is identical — partition, component order, CompOf, Valences,
// Broadcasters, UniformInputs — to DecomposeCtx(ctx, child), which remains
// the from-scratch reference (asserted by TestRefineMatchesDecompose over
// every seed adversary family and the scenarios/ corpus).
//
// The receiver and child are not modified; on cancellation Refine returns
// ctx.Err() and can simply be called again. When the child's parallelism
// is > 1, the scan is spread over the worker pool by parent component,
// mirroring the chunked scan of DecomposeCtx (in-range unions are recorded
// as edges and applied by a sequential merge; no merge across chunks is
// needed because related children never cross parent components).
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
		d.mult() != parent.SymOrder() {
		return nil, fmt.Errorf("topo: Refine: child is not a one-round extension of the decomposed horizon-%d space", parent.Horizon)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Under a symmetry quotient the refinement runs over pseudo-items
	// (components.go): the pseudo parent of child pseudo-item (c,k) is
	// (parentOf(c), k) with the same group element, and Interner.Relabel
	// turns rep rows into pseudo rows on the fly. With m = 1 every pseudo
	// index collapses to the item index and no ID is relabeled.
	m := child.SymOrder()
	nItems := child.Len()
	nPseudo := child.pseudoLen()
	u := uf.New(nPseudo)
	n := child.N()
	child.fr.fault()
	ids := child.fr.ids
	offsets := child.parentOffsets
	// All child views were interned during the extension, and relabeling
	// keeps an ID's stored cone, so every pseudo-item ID is below the bound
	// read here.
	in := child.Interner
	tableSize := in.IDBound()
	if child.parallelism <= 1 {
		sc := refineScratchPool.Get().(*refineScratch)
		sc.acquire(tableSize, int32(len(d.Comps)))
		stamp, firstOf := sc.stamp, sc.firstOf
		scanned := 0
		for ci := range d.Comps {
			sc.epoch++
			epoch := sc.epoch
			for _, ppi := range d.Comps[ci].Members {
				if scanned%cancelCheckInterval == 0 && ctx.Err() != nil {
					refineScratchPool.Put(sc)
					return nil, ctx.Err()
				}
				pp, k := ppi/m, ppi%m
				for i := offsets[pp]; i < offsets[pp+1]; i++ {
					scanned++
					pci := i*m + k
					for _, id := range ids[i*n : (i+1)*n] {
						if k != 0 {
							id = in.Relabel(id, k)
						}
						if stamp[id] == epoch {
							u.Union(int(firstOf[id]), pci)
						} else {
							stamp[id] = epoch
							firstOf[id] = int32(pci)
						}
					}
				}
			}
		}
		refineScratchPool.Put(sc)
	} else {
		// Chunks are whole parent components, so no bucket representative
		// ever needs merging across chunks; workers only record their
		// in-chunk unions as edges for the sequential merge (the union-find
		// is not concurrency-safe, and the closure is order-independent).
		var (
			edgeLists [][][2]int
			edgesMu   sync.Mutex
		)
		err := forEachChunk(ctx, len(d.Comps), child.parallelism, func(lo, hi int) error {
			sc := refineScratchPool.Get().(*refineScratch)
			sc.acquire(tableSize, int32(hi-lo))
			stamp, firstOf := sc.stamp, sc.firstOf
			var edges [][2]int
			for ci := lo; ci < hi; ci++ {
				if ctx.Err() != nil {
					refineScratchPool.Put(sc)
					return ctx.Err()
				}
				sc.epoch++
				epoch := sc.epoch
				for _, ppi := range d.Comps[ci].Members {
					pp, k := ppi/m, ppi%m
					for i := offsets[pp]; i < offsets[pp+1]; i++ {
						pci := i*m + k
						for _, id := range ids[i*n : (i+1)*n] {
							if k != 0 {
								id = in.Relabel(id, k)
							}
							if stamp[id] == epoch {
								if int(firstOf[id]) != pci {
									edges = append(edges, [2]int{int(firstOf[id]), pci})
								}
							} else {
								stamp[id] = epoch
								firstOf[id] = int32(pci)
							}
						}
					}
				}
			}
			refineScratchPool.Put(sc)
			edgesMu.Lock()
			edgeLists = append(edgeLists, edges)
			edgesMu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, edges := range edgeLists {
			for _, e := range edges {
				u.Union(e[0], e[1])
			}
		}
	}
	// Materialize the child components without the general map-based
	// uf.Groups: roots are item indices, so a dense root → group table and
	// an ascending sweep produce the group count, sizes, CompOf labels,
	// each group's parent component (the first member's parent decides —
	// all members share one) and the per-parent-component split counts;
	// a second sweep fills the members into one arena.
	res := &Decomposition{
		Space:  child,
		CompOf: make([]int, nPseudo),
		Mult:   m,
	}
	rootGroup := make([]int32, nPseudo) // group id + 1 of each set root
	sizes := make([]int32, 0, len(d.Comps)*2)
	groupParent := make([]int32, 0, len(d.Comps)*2)
	splits := make([]int32, len(d.Comps))
	pp := 0
	pci := 0
	for i := 0; i < nItems; i++ {
		for i >= offsets[pp+1] {
			pp++
		}
		for k := 0; k < m; k++ {
			r := u.Find(pci)
			g := rootGroup[r]
			if g == 0 {
				g = int32(len(sizes) + 1)
				rootGroup[r] = g
				pc := d.CompOf[pp*m+k]
				sizes = append(sizes, 0)
				groupParent = append(groupParent, int32(pc))
				splits[pc]++
			}
			sizes[g-1]++
			res.CompOf[pci] = int(g - 1)
			pci++
		}
	}
	res.Comps = make([]Component, len(sizes))
	arena := make([]int, nPseudo)
	for gi, size := range sizes {
		res.Comps[gi].Members, arena = arena[:0:size], arena[size:]
	}
	for i := 0; i < nPseudo; i++ {
		gi := res.CompOf[i]
		res.Comps[gi].Members = append(res.Comps[gi].Members, i)
	}
	// Summaries, seeded from the parent component's. Both summary masks are
	// monotone under refinement — heard-sets only grow, and input uniformity
	// over a subset of a component's runs only widens — so whether or not
	// the component split, only the processes that were not yet
	// broadcasters / uniform in the parent need rescanning, and an unsplit
	// component keeps its Valences and UniformInputs verbatim. Valences of
	// split components are rescanned (a subset can lose values); input
	// domains beyond the 64-bit valence mask take the from-scratch
	// summarize, which owns the spill path.
	full := graph.AllNodes(n)
	if err := forEachChunk(ctx, len(res.Comps), child.parallelism, func(lo, hi int) error {
		for gi := lo; gi < hi; gi++ {
			members := res.Comps[gi].Members
			pc := &d.Comps[groupParent[gi]]
			if splits[groupParent[gi]] == 1 {
				res.Comps[gi] = refreshSummary(child, pc, members)
				continue
			}
			if child.InputDomain > 64 {
				res.Comps[gi] = summarize(child, members)
				continue
			}
			var vmask uint64
			bcCand := full &^ pc.Broadcasters
			uiCand := full &^ pc.UniformInputs
			if m == 1 {
				first := child.Inputs(members[0])
				for _, i := range members {
					if v := child.Valence(i); v >= 0 {
						vmask |= 1 << uint(v)
					}
					if bcCand != 0 {
						bcCand &= child.HeardByAll(i)
					}
					if uiCand != 0 {
						in := child.Inputs(i)
						for mm := uiCand; mm != 0; mm &= mm - 1 {
							p := bits.TrailingZeros64(mm)
							if in[p] != first[p] {
								uiCand &^= 1 << uint(p)
							}
						}
					}
				}
			} else {
				// Pseudo members: valence is relabel-invariant, heard masks
				// and input positions permute (components.go, summarizePseudo).
				grp := child.sym.group
				f0, fk := members[0]/m, members[0]%m
				firstIn, firstInv := child.Inputs(f0), grp.Inv(fk)
				for _, pmi := range members {
					i, k := pmi/m, pmi%m
					if v := child.Valence(i); v >= 0 {
						vmask |= 1 << uint(v)
					}
					if bcCand != 0 {
						bcCand &= child.pseudoHeardByAll(i, k)
					}
					if uiCand != 0 {
						in, inv := child.Inputs(i), grp.Inv(k)
						for mm := uiCand; mm != 0; mm &= mm - 1 {
							p := bits.TrailingZeros64(mm)
							if in[inv[p]] != firstIn[firstInv[p]] {
								uiCand &^= 1 << uint(p)
							}
						}
					}
				}
			}
			res.Comps[gi].Valences = valenceList(vmask, nil)
			res.Comps[gi].Broadcasters = pc.Broadcasters | bcCand
			res.Comps[gi].UniformInputs = pc.UniformInputs | uiCand
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// refreshSummary carries a parent component's summary one horizon deeper
// for a component that did not split: its members are exactly the children
// of the parent component's members, so the input-derived summaries
// (Valences, UniformInputs) are unchanged, and Broadcasters — monotone
// under refinement, since heard-sets only grow — needs a rescan only for
// the processes that were not broadcasters yet.
func refreshSummary(s *Space, parent *Component, members []int) Component {
	c := Component{
		Members:       members,
		Valences:      append([]int(nil), parent.Valences...),
		UniformInputs: parent.UniformInputs,
	}
	m := s.SymOrder()
	candidates := graph.AllNodes(s.N()) &^ parent.Broadcasters
	for _, i := range members {
		if candidates == 0 {
			break
		}
		if m == 1 {
			candidates &= s.HeardByAll(i)
		} else {
			candidates &= s.pseudoHeardByAll(i/m, i%m)
		}
	}
	c.Broadcasters = parent.Broadcasters | candidates
	return c
}
