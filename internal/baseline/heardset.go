package baseline

import (
	"topocon/internal/graph"
	"topocon/internal/ma"
)

// HeardSetAnalysis is the exact broadcast automaton of an oblivious
// adversary for one source process p: states are the sets H of processes
// that have heard p; playing graph g moves H to Spread_g(H). H only grows,
// so the automaton is a finite monotone lattice walk.
type HeardSetAnalysis struct {
	// Source is the analysed process p.
	Source int
	// CanTrap reports whether the adversary can prevent p from ever
	// broadcasting: some reachable H ≠ [n] admits a graph with
	// Spread_g(H) = H.
	CanTrap bool
	// TrapSet is a witness trap (0 when CanTrap is false).
	TrapSet uint64
	// WorstBroadcastRounds is the largest number of rounds the adversary
	// can delay "everyone heard p" when it cannot prevent it (-1 when
	// CanTrap is true).
	WorstBroadcastRounds int
}

// AnalyzeHeardSet runs the broadcast automaton of the oblivious adversary
// for source p.
func AnalyzeHeardSet(adv *ma.Oblivious, p int) HeardSetAnalysis {
	n := adv.N()
	full := graph.AllNodes(n)
	out := HeardSetAnalysis{Source: p, WorstBroadcastRounds: -1}
	start := uint64(1) << uint(p)

	// BFS over reachable heard-sets, looking for a stationary H ≠ full.
	reachable := map[uint64]bool{start: true}
	queue := []uint64{start}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h == full {
			continue
		}
		for _, g := range adv.Graphs() {
			next := g.Spread(h)
			if next == h {
				out.CanTrap = true
				out.TrapSet = h
			}
			if !reachable[next] {
				reachable[next] = true
				queue = append(queue, next)
			}
		}
	}
	if out.CanTrap {
		return out
	}
	// No trap: every walk strictly grows H until full; the worst-case
	// delay is the longest path in the DAG of reachable heard-sets, which
	// we compute by memoized depth search (delay(H) = 1 + max over g of
	// delay(Spread_g(H)), delay(full) = 0).
	memo := make(map[uint64]int, len(reachable))
	var delay func(h uint64) int
	delay = func(h uint64) int {
		if h == full {
			return 0
		}
		if d, ok := memo[h]; ok {
			return d
		}
		worst := 0
		for _, g := range adv.Graphs() {
			if d := delay(g.Spread(h)); d > worst {
				worst = d
			}
		}
		memo[h] = worst + 1
		return worst + 1
	}
	out.WorstBroadcastRounds = delay(start)
	return out
}

// GuaranteedBroadcasters returns the processes that broadcast in every
// infinite sequence of the oblivious adversary, together with the largest
// worst-case broadcast delay among them (0 if there are none).
func GuaranteedBroadcasters(adv *ma.Oblivious) (uint64, int) {
	var mask uint64
	worst := 0
	for p := 0; p < adv.N(); p++ {
		a := AnalyzeHeardSet(adv, p)
		if !a.CanTrap {
			mask |= 1 << uint(p)
			if a.WorstBroadcastRounds > worst {
				worst = a.WorstBroadcastRounds
			}
		}
	}
	return mask, worst
}
