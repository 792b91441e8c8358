package topo

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
// the receiver's size cap.
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
	// Lay out child slots with a prefix sum over per-parent branching. The
	// per-parent choice slices are kept for the loop below: Choices is part
	// of the adversary contract, not guaranteed to be cheap — allocating
	// implementations (product automata, filters) would otherwise pay for
	// every parent twice.
	//
	// Only a parent with a nontrivial stabilizer can have children that are
	// relabeled twins of each other: for those the pass counts the round
	// graphs that are their orbit's representative under the stabilizer,
	// and the loop below re-derives the same stabilizers instead of
	// storing one per raw child. Every other parent — all of them under
	// the trivial group — keeps every child with stabilizer 1. The cap
	// check stays in full-space runs (orbit-weighted), so quotiented and
	// plain sessions hit MaxRuns budgets identically.
	grp := s.sym.group
	choices := make([][]graph.Graph, nParents)
	offsets := make([]int, nParents+1)
	fullTotal, widest := 0, 0
	for i := 0; i < nParents; i++ {
		choices[i] = adv.Choices(s.states[i])
		kept := len(choices[i])
		widest = max(widest, kept)
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
	interner := s.Interner
	// The successor table covers the cones the parent round stored first
	// (DESIGN.md §5.1); this round's own range is recorded for the next.
	order := uint32(interner.GroupOrder())
	coneLo, cones := s.fr.idLo/int(order), (s.fr.idHi-s.fr.idLo)/int(order)
	nf.idLo = interner.IDBound()
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
		pager:         s.pager,
		sym:           s.sym,
		stab:          make([]uint64, total),
	}
	// The scratch — the in-mask memo and the successor table — is pooled
	// across rounds, so the per-child allocation count is 0.
	sc := extendScratchPool.Get().(*extendScratch)
	defer extendScratchPool.Put(sc)
	width := min(widest, memoWidth)
	sc.acquire(n, width, cones)
	seen, ins, outs, succ := sc.seen, sc.ins, sc.outs, sc.succ
	for i := 0; i < nParents; i++ {
		if i%cancelCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		prevIDs := s.fr.idRow(i)
		prevHeard := s.fr.heardRow(i)
		pState := s.states[i]
		pDoneAt := s.doneAt[i]
		pValence := s.valence[i]
		pRoot := s.fr.rootOf[i]
		pStab := s.stab[i]
		clear(seen)
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
				// The view of p is fixed by the parent's row and p's
				// in-mask: a sibling with the same mask already interned
				// it, so copy that sibling's cell (DESIGN.md §5.1).
				in := g.In(p)
				if j := slices.Index(ins[p*width:p*width+seen[p]], in); j >= 0 {
					o := outs[p*width+j]
					dstIDs[p], dstHeard[p] = o.id, o.heard
					continue
				}
				var id ptg.ViewID
				var h uint64
				if in == 1<<uint(p) {
					// p heard only itself: its view is a function of its
					// previous view alone, which another parent of this
					// round may already have extended. A view outside the
					// parent round's cone range (or -1) indexes no cell
					// and takes the Node path.
					prev := prevIDs[p]
					h = prevHeard[p]
					k := int(uint32(prev)/order) - coneLo
					if uint(k) < uint(len(succ)) && succ[k].prev == prev {
						id = succ[k].id
					} else if id = interner.Node(p, in, prevIDs); uint(k) < uint(len(succ)) && id >= 0 {
						succ[k] = succCell{prev: prev, id: id}
					}
				} else {
					for m := in; m != 0; m &= m - 1 {
						h |= prevHeard[bits.TrailingZeros64(m)]
					}
					id = interner.Node(p, in, prevIDs)
				}
				dstIDs[p], dstHeard[p] = id, h
				if k := seen[p]; k < width {
					ins[p*width+k], outs[p*width+k] = in, memoOut{heard: h, id: id}
					seen[p]++
				}
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
	nf.idHi = interner.IDBound()
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

// memoWidth caps the distinct in-masks the memo keeps per process and
// parent, and with it the scan; once a process's slots are full, its
// further new masks are interned directly. Eight masks fill one cache line
// and hold every in-mask a process of an n ≤ 4 adversary can have (it
// always hears itself, so it has at most 2^(n-1)); on wide rounds that
// share no mask, an unbounded scan only added cost (EXPERIMENTS.md).
const memoWidth = 8

// extendScratch is extendOne's scratch.
//
// The in-mask memo (DESIGN.md §5.1): for the parent being extended,
// seen[p] counts the distinct in-masks g.In(p) kept among its children so
// far, ins[p*width+j] is the j-th and outs[p*width+j] the view and heard
// word it produced.
//
// The successor table (DESIGN.md §5.1) answers self-only requests across
// the parents of one round: succ[k] holds the child view of the parent
// round's view prev, for the cone k = prev/|G| − coneLo. It holds view IDs
// only, so a pooled scratch keeps no finished session's chain alive.
type extendScratch struct {
	seen []int
	ins  []uint64
	outs []memoOut
	succ []succCell
}

// memoOut is the child view and heard word an in-mask produced under the
// current parent.
type memoOut struct {
	heard uint64
	id    ptg.ViewID
}

// succCell is one successor table cell: the self-only child view id of
// the parent view prev. An empty cell has prev −1, which no view in a
// cone range has; id is never −1.
type succCell struct {
	prev, id ptg.ViewID
}

var extendScratchPool = sync.Pool{New: func() any { return new(extendScratch) }}

// acquire sizes the memo for n processes with width slots each and
// empties a successor table of cones cells. Both grow only when a round
// outgrows every earlier one.
func (sc *extendScratch) acquire(n, width, cones int) {
	if cap(sc.seen) < n {
		sc.seen = make([]int, n)
	}
	sc.seen = sc.seen[:n]
	if cap(sc.ins) < n*width {
		sc.ins = make([]uint64, n*width)
		sc.outs = make([]memoOut, n*width)
	}
	sc.ins, sc.outs = sc.ins[:n*width], sc.outs[:n*width]
	if cap(sc.succ) < cones {
		sc.succ = make([]succCell, cones)
	}
	sc.succ = sc.succ[:cones]
	for k := range sc.succ {
		sc.succ[k] = succCell{prev: -1}
	}
}
