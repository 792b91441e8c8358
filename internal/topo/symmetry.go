package topo

import (
	"math/bits"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// Symmetry quotient (DESIGN.md §13). A consensus instance is symmetric
// under a group G whose elements are pairs (σ, π): σ an automorphism of
// the adversary's graph language (ma.Automorphisms), π a permutation of
// the input values (Sym(V) — renaming values preserves termination,
// agreement and validity). Every run prefix has up to |G| relabeled twins
// carrying the same information up to process and value renaming: the
// twin (σ, π)·r plays σ(g) where r plays g, and gives process σ(p) the
// input π(x_p). The quotiented space interns exactly one representative
// per G-orbit:
//
//   - the horizon-0 base keeps one input vector per orbit (the
//     numerically smallest), with stab[i] = the bitmask of group
//     elements fixing it;
//   - extendOne keeps child rep·g only when g is the numerically
//     smallest graph of its Stab(parent)-orbit, and the child inherits
//     stab[c] = {τ ∈ stab[parent] : σ_τ(g) = g}. By induction this keeps
//     exactly one representative per full-space orbit, and the orbit of
//     item i has |G| / popcount(stab[i]) full-space members — the weight
//     FullLen and the verdict accounting report.
//
// Decomposition runs on the representatives too, with group-labelled
// edges (components.go, uf.Labelled): components are G-equivariant, so a
// component orbit is described by one base component, the element that
// moves each member's run into it, and the base component's stabilizer.
// Valences and inputs travel with π, heard masks and graphs with σ alone.
//
// One ma.Group, resolved over the input domain and shared by every Space
// of the chain, numbers the elements for all of these: its multiplication
// table composes the union-find's labels, the decomposition's coset
// reductions and the interner's IDs alike.
//
// Relabeled rows are never stored. The chain's interner is orbit-canonical
// under the same group (ptg.Interner.AdoptGroup): it stores one cone per
// orbit, and a view's ID says where in its orbit the view sits — ID / |G|
// is the orbit, ID mod |G| the element reaching the view from the stored
// cone — so the relabeled twin of a view is Interner.Relabel(id, k),
// arithmetic on the ID, with no per-view memo and no twin cone interned.
//
// A space built without symmetry runs the same code under the trivial
// group: every input vector and round graph is its orbit's representative,
// every stabilizer is 1, every label the identity, and the plain interner
// is the order-1 case of the orbit-canonical one.

// SymOrder returns the order of the chain's symmetry group, 1 for the
// trivial group.
func (s *Space) SymOrder() int { return s.sym.Order() }

// SymGroup returns the group the chain is quotiented by, resolved over
// its input domain — G × Sym(V) when that fits — or the trivial group when
// the space was built without symmetry. Its table (Mul, Inv, MinCoset, …)
// composes the decomposition's labels.
func (s *Space) SymGroup() *ma.Group { return s.sym }

// OrbitSize returns the number of full-space runs item i represents:
// |G| / |Stab(i)|, 1 under the trivial group.
func (s *Space) OrbitSize(i int) int {
	return s.sym.Order() / bits.OnesCount64(s.stab[i])
}

// FullLen returns the number of full-space runs the space represents, the
// sum of orbit sizes (Len() under the trivial group). Budget caps,
// RunsExplored reporting and the BuildCtx cross-check against
// ma.CountPrefixes all use full-space numbers, so quotiented and plain
// sessions account identically.
func (s *Space) FullLen() int {
	total := 0
	for _, st := range s.stab {
		total += s.sym.Order() / bits.OnesCount64(st)
	}
	return total
}

// inputOrbitRep decides the base-level quotient for one input vector w:
// keep reports whether w is the numerically smallest vector of its
// G-orbit (the relabeling of w by (σ, π) assigns π(w[p]) to process
// σ(p)), and stab is the bitmask of elements fixing w. Vectors that tie
// with an image under some element are fixed by it, so exactly one vector
// per orbit is kept.
func inputOrbitRep(w []int, g *ma.Group) (stab uint64, keep bool) {
	stab = 1 // the identity
	for k := 1; k < g.Order(); k++ {
		inv := g.InvPerm(k)
		cmp := 0
		for p := range w {
			// Image of w under element k at position p.
			ip := g.Value(k, w[inv[p]])
			if ip != w[p] {
				if ip < w[p] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		if cmp < 0 {
			return 0, false
		}
		if cmp == 0 {
			stab |= 1 << uint(k)
		}
	}
	return stab, true
}

// graphOrbitStab decides the extension-level quotient for one round
// graph: given the parent's stabilizer mask, it returns 0 when some
// stabilizer element maps g to a numerically smaller graph (g is not the
// orbit representative and the child is dropped), and otherwise the
// child's stabilizer mask {τ ∈ parentStab : σ_τ(g) = g}. Graphs relabel
// by an element's process part alone.
//
//topocon:allocfree
func graphOrbitStab(g graph.Graph, grp *ma.Group, parentStab uint64) uint64 {
	stab := uint64(1)
	for rest := parentStab &^ 1; rest != 0; rest &= rest - 1 {
		k := bits.TrailingZeros64(rest)
		perm, inv := grp.Elem(k), grp.InvPerm(k)
		cmp := 0
		for q := 0; q < g.N(); q++ {
			img := graph.PermuteMask(g.In(inv[q]), perm)
			if have := g.In(q); img != have {
				if img < have {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		if cmp < 0 {
			return 0
		}
		if cmp == 0 {
			stab |= 1 << uint(k)
		}
	}
	return stab
}

// permuteMask relabels a process bitmask by group element g: bit p moves to
// σ_g(p), whatever g's value part.
func (s *Space) permuteMask(mask uint64, g uint8) uint64 {
	if g == 0 {
		return mask
	}
	return graph.PermuteMask(mask, s.sym.Elem(int(g)))
}

// twinElems lists one group element per distinct twin of item i — the
// least element of each coset k·Stab(i) — so σ_k·(run i) over the list
// enumerates the item's orbit without repeats.
func (s *Space) twinElems(i int) []int {
	m := s.SymOrder()
	out := make([]int, 0, m)
	st := s.stab[i]
	for k := 0; k < m; k++ {
		if st == 1 || s.sym.MinCoset(1, uint8(k), st) == uint8(k) {
			out = append(out, k)
		}
	}
	return out
}

// PseudoViews materializes the Views adapter of the twin σ_k·(run i): the
// representative's rows with every id relabeled by k and every position
// permuted — process σ(p) of the twin holds the relabeled view of the
// rep's process p, whose leaves hold the inputs relabeled by π_k and
// whose heard mask (Interner.Heard) is the rep's mask with the bits
// renamed. This is a cold path (pair scans, witness expansion); per-call
// allocation mirrors ViewsOf.
func (s *Space) PseudoViews(i, k int) *ptg.Views {
	if k == 0 {
		return s.ViewsOf(i)
	}
	inv := s.sym.InvPerm(k)
	in := s.Interner
	n := s.fr.n
	ids := make([][]ptg.ViewID, s.Horizon+1)
	f, idx := s.fr, i
	for {
		f.fault()
		src := f.idRow(idx)
		row := make([]ptg.ViewID, n)
		for p := 0; p < n; p++ {
			row[p] = in.Relabel(src[inv[p]], k)
		}
		ids[f.horizon] = row
		if f.prev == nil {
			break
		}
		idx = int(f.parentOf[idx])
		f = f.prev
	}
	return ptg.ViewsFromRows(s.Interner, ids)
}

// PseudoRun materializes the run prefix of the twin σ_k·(run i): the
// representative's run relabeled by group element k, processes by σ_k and
// inputs by π_k.
func (s *Space) PseudoRun(i, k int) ptg.Run {
	r := s.RunOf(i)
	if k == 0 {
		return r
	}
	grp := s.sym
	r = r.Relabel(grp.Elem(k))
	for p, x := range r.Inputs {
		r.Inputs[p] = grp.Value(k, x)
	}
	return r
}
