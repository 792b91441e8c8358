package topo

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"topocon/internal/ptg"
)

// Extend returns the prefix space at the given (strictly larger) horizon by
// extending this space's runs round by round, instead of re-enumerating the
// exponential space from the root. Each round reuses
//
//   - the horizon-t frontier: a child only computes its one new view row,
//     written straight into the child space's dense columns; all earlier
//     rounds are reached through the frontier chain, shared, never copied;
//   - the chain's compiled adversary (ma.Table): a parent's state ID
//     indexes its row of choices and successor states, compiled the first
//     time a parent reaches that state, so the adversary is asked about
//     each reachable state once per chain;
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
// item by item on runs, obligations and view structure.
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
// core of the checker's wall clock: one interned view row, one table
// lookup, and column writes — no Views clone, no Run copy, no per-child
// allocation (pinned by TestExtendAllocsPerChild).
//
//topocon:allocfree
func (s *Space) extendOne(ctx context.Context) (*Space, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.fr.fault() // a resumed head is resident, but rehydrated ancestors may not be
	nParents := s.Len()
	auto := s.fr.base.auto
	// Count the child slots over per-parent branching. This pass compiles
	// the row of every state a parent reaches for the first time, so the
	// loop below only reads the table.
	//
	// Only a parent with a nontrivial stabilizer can have children that are
	// relabeled twins of each other: for those the pass counts the round
	// graphs that are their orbit's representative under the stabilizer,
	// and the loop below re-derives the same stabilizers instead of
	// storing one per raw child. Every other parent — all of them under
	// the trivial group — keeps every child with stabilizer 1. The cap
	// check stays in full-space runs (orbit-weighted), so quotiented and
	// plain sessions hit MaxRuns budgets identically.
	grp := s.sym
	total, fullTotal, widest := 0, 0, 0
	for i := 0; i < nParents; i++ {
		letters := auto.Row(s.state[i]).Letters
		kept := len(letters)
		widest = max(widest, kept)
		if si := s.stab[i]; si != 1 {
			kept = 0
			for _, l := range letters {
				if graphOrbitStab(auto.Graph(l), grp, si) != 0 {
					kept++
				}
			}
		}
		total += kept
		fullTotal += s.OrbitSize(i) * len(letters)
	}
	alphabet := auto.Alphabet() // complete for this round: every parent's row is compiled
	if fullTotal > s.maxRuns {
		return nil, fmt.Errorf("topo: space has %d runs, exceeding cap %d", fullTotal, s.maxRuns)
	}
	n := s.fr.n
	nf := &frontier{
		horizon:  s.Horizon + 1,
		n:        n,
		count:    total,
		ids:      make([]ptg.ViewID, total*n),
		letter:   make([]int32, total),
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
		Adversary:   s.Adversary,
		InputDomain: s.InputDomain,
		Horizon:     s.Horizon + 1,
		Interner:    s.Interner,
		fr:          nf,
		state:       make([]int32, total),
		doneAt:      make([]int32, total),
		maxRuns:     s.maxRuns,
		pager:       s.pager,
		sym:         s.sym,
		stab:        make([]uint64, total),
	}
	// The scratch — the in-mask memo and the successor table — is pooled
	// across rounds, so the per-child allocation count is 0.
	sc := extendScratchPool.Get().(*extendScratch)
	defer extendScratchPool.Put(sc)
	sc.acquire(n, min(widest, memoWidth), cones)
	succ := sc.succ
	c := -1 // the last child slot written; children fill the slots in parent order
	for i := 0; i < nParents; i++ {
		if i%cancelCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		prevIDs := s.fr.idRow(i)
		row := auto.Row(s.state[i])
		pDoneAt := s.doneAt[i]
		pRoot := s.fr.rootOf[i]
		pStab := s.stab[i]
		sc.nextParent()
		for j, l := range row.Letters {
			g := alphabet[l]
			cStab := uint64(1)
			if pStab != 1 {
				if cStab = graphOrbitStab(g, grp, pStab); cStab == 0 {
					continue // a relabeled twin of an earlier sibling
				}
			}
			c++
			dst := nf.ids[c*n : (c+1)*n]
			for p := 0; p < n; p++ {
				// The view of p is fixed by the parent's row and p's
				// in-mask: a sibling with the same mask already interned
				// it, so copy that sibling's view (DESIGN.md §5.1).
				in := g.In(p)
				if id, ok := sc.memo(p, in); ok {
					dst[p] = id
					continue
				}
				var id ptg.ViewID
				if in == 1<<uint(p) {
					// p heard only itself: its view is a function of its
					// previous view alone, which another parent of this
					// round may already have extended. A view outside the
					// parent round's cone range (or -1) indexes no cell
					// and takes the Node path.
					prev := prevIDs[p]
					k := int(uint32(prev)/order) - coneLo
					if uint(k) < uint(len(succ)) && succ[k].prev == prev {
						id = succ[k].id
					} else if id = interner.Node(p, in, prevIDs); uint(k) < uint(len(succ)) && id >= 0 {
						succ[k] = succCell{prev: prev, id: id}
					}
				} else {
					id = interner.Node(p, in, prevIDs)
				}
				dst[p] = id
				sc.remember(p, in, id)
			}
			state := row.Next[j]
			doneAt := pDoneAt
			if doneAt < 0 && auto.Done(state) {
				doneAt = int32(next.Horizon)
			}
			nf.letter[c] = l
			nf.parentOf[c] = int32(i)
			nf.rootOf[c] = pRoot
			next.state[c] = state
			next.doneAt[c] = doneAt
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
// far, ins[p*width+j] is the j-th and outs[p*width+j] the view it
// produced. Extension and the restore check (frontier.checkViews) both
// read it through memo and remember.
//
// The successor table (DESIGN.md §5.1) answers self-only requests across
// the parents of one round: succ[k] holds the child view of the parent
// round's view prev, for the cone k = prev/|G| − coneLo. It holds view IDs
// only, so a pooled scratch keeps no finished session's chain alive.
type extendScratch struct {
	width int
	seen  []int
	ins   []uint64
	outs  []ptg.ViewID
	succ  []succCell
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
		sc.outs = make([]ptg.ViewID, n*width)
	}
	sc.ins, sc.outs = sc.ins[:n*width], sc.outs[:n*width]
	sc.width = width
	if cap(sc.succ) < cones {
		sc.succ = make([]succCell, cones)
	}
	sc.succ = sc.succ[:cones]
	for k := range sc.succ {
		sc.succ[k] = succCell{prev: -1}
	}
}

// nextParent empties the in-mask memo for the next parent's children.
func (sc *extendScratch) nextParent() { clear(sc.seen) }

// memo returns the view the current parent's children gave process p
// for in-mask mask, if the memo kept it.
func (sc *extendScratch) memo(p int, mask uint64) (ptg.ViewID, bool) {
	w := sc.width
	if j := slices.Index(sc.ins[p*w:p*w+sc.seen[p]], mask); j >= 0 {
		return sc.outs[p*w+j], true
	}
	return 0, false
}

// remember keeps view id as the current parent's answer for process p
// and in-mask mask, while p has a free slot.
func (sc *extendScratch) remember(p int, mask uint64, id ptg.ViewID) {
	if k := sc.seen[p]; k < sc.width {
		sc.ins[p*sc.width+k], sc.outs[p*sc.width+k] = mask, id
		sc.seen[p]++
	}
}
