package topo

import (
	"context"
	"fmt"
	"math/bits"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// Extend returns the prefix space at the given (strictly larger) horizon by
// extending this space's runs round by round, instead of re-enumerating the
// exponential space from the root. Each round reuses
//
//   - the horizon-t frontier: a child only computes its one new view row,
//     written straight into the child space's dense columns; all earlier
//     rounds are reached through the frontier chain, shared, never copied;
//   - the adversary automaton states: children step the parent's stored
//     state, so prefix admissibility is never re-derived;
//   - the shared Interner, keeping views comparable across all horizons.
//
// The receiver is not modified and stays valid, so iterative-deepening
// callers can retain every horizon they visited. The child space inherits
// the receiver's size cap and parallelism (frontier expansion is spread
// over a worker pool when parallelism > 1).
//
// Extend produces items in exactly the order BuildCtx would: children of
// one parent appear in Choices order, parents in their own item order —
// which is the depth-first prefix enumeration order at the deeper horizon.
// The incremental-extension invariant (asserted by TestExtendMatchesBuild)
// is that a horizon-t BuildCtx and a horizon-0 BuildCtx extended to t agree
// item by item on runs, automaton states, obligations and view structure.
func (s *Space) Extend(ctx context.Context, horizon int) (*Space, error) {
	if horizon <= s.Horizon {
		return nil, fmt.Errorf("topo: Extend to horizon %d from %d (must grow)", horizon, s.Horizon)
	}
	cur := s
	for cur.Horizon < horizon {
		next, err := cur.extendOne(ctx)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// extendOne builds the horizon+1 space from s. The per-child cost is the
// core of the checker's wall clock: one interned view row, one automaton
// step, and column writes — no Views clone, no Run copy, no per-child
// allocation (pinned by TestExtendAllocsPerChild).
//
//topocon:allocfree
func (s *Space) extendOne(ctx context.Context) (*Space, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	adv := s.Adversary
	s.fr.fault() // a resumed head is resident, but rehydrated ancestors may not be
	nParents := s.Len()
	// Lay out child slots with a prefix sum over per-parent branching, so
	// workers write disjoint, deterministic ranges. The per-parent choice
	// slices are kept for the worker loop below: Choices is part of the
	// adversary contract, not guaranteed to be cheap — allocating
	// implementations (product automata, filters) would otherwise pay for
	// every parent twice.
	//
	// Only a parent with a nontrivial stabilizer can have children that are
	// relabeled twins of each other: for those the pass counts the round
	// graphs that are their orbit's representative under the stabilizer,
	// and the worker loop below re-derives the same stabilizers instead of
	// storing one per raw child. Every other parent — all of them under
	// the trivial group — keeps every child with stabilizer 1. The cap
	// check stays in full-space runs (orbit-weighted), so quotiented and
	// plain sessions hit MaxRuns budgets identically.
	grp := s.sym.group
	choices := make([][]graph.Graph, nParents)
	offsets := make([]int, nParents+1)
	fullTotal := 0
	for i := 0; i < nParents; i++ {
		choices[i] = adv.Choices(s.states[i])
		kept := len(choices[i])
		if si := s.stab[i]; si != 1 {
			kept = 0
			for _, g := range choices[i] {
				if graphOrbitStab(g, grp, si) != 0 {
					kept++
				}
			}
		}
		offsets[i+1] = offsets[i] + kept
		fullTotal += s.OrbitSize(i) * len(choices[i])
	}
	total := offsets[nParents]
	if fullTotal > s.maxRuns {
		return nil, fmt.Errorf("topo: space has %d runs, exceeding cap %d", fullTotal, s.maxRuns)
	}
	n := s.fr.n
	nf := &frontier{
		horizon:  s.Horizon + 1,
		n:        n,
		count:    total,
		ids:      make([]ptg.ViewID, total*n),
		heard:    make([]uint64, total*n),
		gs:       make([]graph.Graph, total),
		parentOf: make([]int32, total),
		rootOf:   make([]int32, total),
		prev:     s.fr,
		base:     s.fr.base,
	}
	next := &Space{
		Adversary:     adv,
		InputDomain:   s.InputDomain,
		Horizon:       s.Horizon + 1,
		Interner:      s.Interner,
		fr:            nf,
		states:        make([]ma.State, total),
		doneAt:        make([]int32, total),
		valence:       make([]int32, total),
		parentOffsets: offsets,
		maxRuns:       s.maxRuns,
		parallelism:   s.parallelism,
		pager:         s.pager,
		sym:           s.sym,
		stab:          make([]uint64, total),
	}
	interner := s.Interner
	err := forEachChunk(ctx, nParents, s.parallelism, func(lo, hi int) error {
		// Per-worker scratch for the in-neighbour pair lists; reused across
		// every child of the chunk, so the per-child allocation count is 0.
		qs := make([]int, 0, n)
		children := make([]ptg.ViewID, 0, n)
		for i := lo; i < hi; i++ {
			prevIDs := s.fr.idRow(i)
			prevHeard := s.fr.heardRow(i)
			pState := s.states[i]
			pDoneAt := s.doneAt[i]
			pValence := s.valence[i]
			pRoot := s.fr.rootOf[i]
			pStab := s.stab[i]
			c := offsets[i] - 1
			for _, g := range choices[i] {
				cStab := uint64(1)
				if pStab != 1 {
					if cStab = graphOrbitStab(g, grp, pStab); cStab == 0 {
						continue // a relabeled twin of an earlier sibling
					}
				}
				c++
				dstIDs := nf.ids[c*n : (c+1)*n]
				dstHeard := nf.heard[c*n : (c+1)*n]
				for p := 0; p < n; p++ {
					qs = qs[:0]
					children = children[:0]
					var h uint64
					for m := g.In(p); m != 0; m &= m - 1 {
						q := bits.TrailingZeros64(m)
						qs = append(qs, q)
						children = append(children, prevIDs[q])
						h |= prevHeard[q]
					}
					dstIDs[p] = interner.Node(p, qs, children)
					dstHeard[p] = h
				}
				state := adv.Step(pState, g)
				doneAt := pDoneAt
				if doneAt < 0 && adv.Done(state) {
					doneAt = int32(next.Horizon)
				}
				nf.gs[c] = g
				nf.parentOf[c] = int32(i)
				nf.rootOf[c] = pRoot
				next.states[c] = state
				next.doneAt[c] = doneAt
				next.valence[c] = pValence
				next.stab[c] = cStab
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A view whose ID would overflow int32 fails the round like the size
	// cap does, instead of wrapping.
	if err := interner.Err(); err != nil {
		return nil, err
	}
	if s.pager != nil {
		// The receiver's round just stopped being the head: persist it and
		// hand its columns to the pager, which evicts them once the hot set
		// outgrows the budget. Chain walks fault them back transparently.
		if err := s.fr.spill(s.pager); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// SetParallelism sets the worker count used by Extend and Refine on
// this space and its descendants; w ≤ 1 selects sequential operation.
func (s *Space) SetParallelism(w int) { s.parallelism = w }

// Parallelism returns the configured worker count.
func (s *Space) Parallelism() int { return s.parallelism }
