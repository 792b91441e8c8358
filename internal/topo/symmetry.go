package topo

import (
	"math/bits"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// Symmetry quotient (DESIGN.md §13). When the adversary's graph language
// has a nontrivial automorphism group G (ma.Automorphisms), every run
// prefix has up to |G| relabeled twins carrying the same information up
// to process renaming. The quotiented space interns exactly one
// representative per G-orbit:
//
//   - the horizon-0 base keeps one input vector per orbit (the
//     numerically smallest), with stab[i] = the bitmask of group
//     elements fixing it;
//   - extendOne keeps child rep·g only when g is the numerically
//     smallest graph of its Stab(parent)-orbit, and the child inherits
//     stab[c] = {τ ∈ stab[parent] : τ(g) = g}. By induction this keeps
//     exactly one representative per full-space orbit, and the orbit of
//     item i has |G| / popcount(stab[i]) full-space members — the weight
//     FullLen and the verdict accounting report.
//
// Decomposition cannot run on representative rows alone: two orbit
// members of one rep may lie in different full-space components, and
// cross-orbit view sharing (rep a's twin sharing a view with rep b) must
// still merge. DecomposeCtx/Refine therefore work on pseudo-items — the
// pairs (i,k) for every rep i and group element k, indexed i·|G|+k —
// whose view rows are the rep rows relabeled by element k. The pseudo
// expansion is exactly the full space with stabilizer-induced duplicates,
// and duplicates are harmless to a union-find partition: a duplicate
// pseudo-item shares every view with its twin, so they always land in the
// same component, and component summaries fold them idempotently.
//
// Relabeled rows are never stored. The chain's interner is orbit-canonical
// under the same group (ptg.Interner.AdoptGroup): it stores one cone per
// orbit, and a view's ID says where in its orbit the view sits, so the
// relabeled twin of a view is Interner.Relabel(id, k) — arithmetic on the
// ID, with no per-view memo and no twin cone interned.

// symState is the chain-level symmetry state, shared by every Space of
// one frontier chain (extensions, restores, ancestors).
type symState struct {
	group *ma.Group
	m     int // group order, ≥ 2
}

// groupPerms lists the group's elements as image-indexed permutations, the
// form ptg's orbit-canonical interner takes.
func groupPerms(g *ma.Group) [][]int {
	perms := make([][]int, g.Order())
	for k := range perms {
		perms[k] = g.Elem(k)
	}
	return perms
}

// SymOrder returns the order of the chain's symmetry group (1 when the
// space is not quotiented).
func (s *Space) SymOrder() int {
	if s.sym == nil {
		return 1
	}
	return s.sym.m
}

// SymGroup returns the automorphism group the chain is quotiented by, or
// nil when the space is not quotiented.
func (s *Space) SymGroup() *ma.Group {
	if s.sym == nil {
		return nil
	}
	return s.sym.group
}

// OrbitSize returns the number of full-space runs item i represents:
// |G| / |Stab(i)|, or 1 when the space is not quotiented.
func (s *Space) OrbitSize(i int) int {
	if s.sym == nil {
		return 1
	}
	return s.sym.m / bits.OnesCount64(s.stab[i])
}

// FullLen returns the number of full-space runs the space represents —
// Len() when not quotiented, the sum of orbit sizes otherwise. Budget
// caps, RunsExplored reporting and the BuildCtx cross-check against
// ma.CountPrefixes all use full-space numbers, so quotiented and plain
// sessions account identically.
func (s *Space) FullLen() int {
	if s.sym == nil {
		return s.fr.count
	}
	total := 0
	for _, st := range s.stab {
		total += s.sym.m / bits.OnesCount64(st)
	}
	return total
}

// Quotiented reports whether the space interns one representative per
// automorphism orbit.
func (s *Space) Quotiented() bool { return s.sym != nil }

// inputOrbitRep decides the base-level quotient for one input vector w:
// keep reports whether w is the numerically smallest vector of its
// G-orbit (the relabeling of w by σ assigns w[p] to process σ(p)), and
// stab is the bitmask of elements fixing w. Vectors that tie with an
// image under some element are fixed by it, so exactly one vector per
// orbit is kept.
func inputOrbitRep(w []int, g *ma.Group) (stab uint64, keep bool) {
	stab = 1 // the identity
	for k := 1; k < g.Order(); k++ {
		inv := g.Inv(k)
		cmp := 0
		for p := range w {
			// Image of w under element k at position p.
			ip := w[inv[p]]
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
// child's stabilizer mask {τ ∈ parentStab : τ(g) = g}.
//
//topocon:allocfree
func graphOrbitStab(g graph.Graph, grp *ma.Group, parentStab uint64) uint64 {
	stab := uint64(1)
	for rest := parentStab &^ 1; rest != 0; rest &= rest - 1 {
		k := bits.TrailingZeros64(rest)
		perm, inv := grp.Elem(k), grp.Inv(k)
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

// replayStab recomputes the stabilizer column of a restored round from
// the recorded parent links and round graphs — the same recurrence
// extendOne applies, so a restored chain carries byte-identical orbit
// accounting. stab/sym are derived state and are never serialized.
func replayStab(parent *Space, f *frontier) []uint64 {
	stab := make([]uint64, f.count)
	for c := 0; c < f.count; c++ {
		stab[c] = graphOrbitStab(f.gs[c], parent.sym.group, parent.stab[int(f.parentOf[c])])
	}
	return stab
}

// pseudoLen returns the pseudo-item count a decomposition over the space
// works with: Len()·|G| under a quotient, Len() otherwise.
func (s *Space) pseudoLen() int {
	if s.sym == nil {
		return s.fr.count
	}
	return s.fr.count * s.sym.m
}

// pseudoHeardByAll is HeardByAll for pseudo-item (i,k): the heard masks
// of a relabeled run are the relabeled heard masks, so the all-processes
// fold commutes with the relabeling.
func (s *Space) pseudoHeardByAll(i, k int) uint64 {
	h := s.HeardByAll(i)
	if k == 0 {
		return h
	}
	return graph.PermuteMask(h, s.sym.group.Elem(k))
}

// PseudoInput is Inputs(i)[p] for pseudo-item (i,k): relabeling assigns
// rep input w[q] to process σ(q), so process p of the twin holds
// w[σ⁻¹(p)].
func (s *Space) PseudoInput(i, k, p int) int {
	if k == 0 {
		return s.Inputs(i)[p]
	}
	return s.Inputs(i)[s.sym.group.Inv(k)[p]]
}

// PseudoViews materializes the Views adapter of pseudo-item (i,k): the
// representative's rows with every id relabeled by k and every position
// permuted — process σ(p) of the twin holds the relabeled
// view of the rep's process p, and its heard mask is the rep's mask with
// the bits renamed. This is a cold path (pair scans, witness expansion);
// per-call allocation mirrors ViewsOf.
func (s *Space) PseudoViews(i, k int) *ptg.Views {
	if k == 0 || s.sym == nil {
		return s.ViewsOf(i)
	}
	perm := s.sym.group.Elem(k)
	inv := s.sym.group.Inv(k)
	in := s.Interner
	n := s.fr.n
	ids := make([][]ptg.ViewID, s.Horizon+1)
	heard := make([][]uint64, s.Horizon+1)
	f, idx := s.fr, i
	for {
		f.fault()
		src, srcHeard := f.idRow(idx), f.heardRow(idx)
		row := make([]ptg.ViewID, n)
		hrow := make([]uint64, n)
		for p := 0; p < n; p++ {
			row[p] = in.Relabel(src[inv[p]], k)
			hrow[p] = graph.PermuteMask(srcHeard[inv[p]], perm)
		}
		ids[f.horizon] = row
		heard[f.horizon] = hrow
		if f.prev == nil {
			break
		}
		idx = int(f.parentOf[idx])
		f = f.prev
	}
	return ptg.ViewsFromRows(s.Interner, ids, heard)
}

// PseudoRun materializes the run prefix of pseudo-item (i,k): the
// representative's run relabeled by group element k.
func (s *Space) PseudoRun(i, k int) ptg.Run {
	r := s.RunOf(i)
	if k == 0 || s.sym == nil {
		return r
	}
	return r.Relabel(s.sym.group.Elem(k))
}
