package baseline

import (
	"strings"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// This file keeps the original string-keyed bivalence engine as the test
// oracle of the dense-id kernel in bivalence.go: a map[string]bool
// survivor set swept to a fixpoint, and a DFS that appends result words.
// It is slow and simple on purpose.

// oracleProveBivalent is ProveBivalent on the oracle engine; it also
// returns the survivor set keyed by wordKey.
func oracleProveBivalent(adv *ma.Oblivious, inputDomain, maxChainLen int) (*BivalenceCertificate, bool, map[string]bool) {
	if maxChainLen < 1 || adv.N() > 8 {
		return nil, false, nil
	}
	e := newChainEngine(adv, maxChainLen)
	e.computeSurvivors()
	if len(e.surviving) == 0 {
		return nil, false, e.surviving
	}
	inputs, word, ok := e.findAnchoredChain(inputDomain)
	if !ok {
		return nil, false, e.surviving
	}
	return &BivalenceCertificate{
		InitialInputs: inputs,
		InitialWord:   word,
		Surviving:     len(e.surviving),
	}, true, e.surviving
}

// chainEngine computes the greatest fixpoint of surviving chain words.
type chainEngine struct {
	n      int
	full   uint64
	maxLen int
	graphs []graph.Graph
	// update[g][h] maps an agreement set A to the successor agreement set;
	// precomputed as masks: upd(A) = {p : In_p(g)=In_p(h) ⊆ A}.
	surviving map[string]bool
}

func newChainEngine(adv *ma.Oblivious, maxLen int) *chainEngine {
	return &chainEngine{
		n:         adv.N(),
		full:      graph.AllNodes(adv.N()),
		maxLen:    maxLen,
		graphs:    adv.Graphs(),
		surviving: make(map[string]bool),
	}
}

// computeSurvivors iterates S ← {w ∈ S : some successor of w is in S}
// starting from all non-empty-agreement words of length ≤ maxLen, until a
// fixpoint is reached.
func (e *chainEngine) computeSurvivors() {
	var words [][]uint64
	var gen func(prefix []uint64)
	gen = func(prefix []uint64) {
		if len(prefix) > 0 {
			words = append(words, append([]uint64(nil), prefix...))
		}
		if len(prefix) == e.maxLen {
			return
		}
		for a := uint64(1); a <= e.full; a++ {
			gen(append(prefix, a))
		}
	}
	gen(nil)
	for _, w := range words {
		e.surviving[wordKey(w)] = true
	}
	for {
		removed := 0
		for _, w := range words {
			k := wordKey(w)
			if !e.surviving[k] {
				continue
			}
			if !e.hasSurvivingSuccessor(w) {
				delete(e.surviving, k)
				removed++
			}
		}
		if removed == 0 {
			return
		}
	}
}

// hasSurvivingSuccessor reports whether some padded-and-extended version of
// w is currently surviving. Padding inserts full-set symbols (element
// duplication); extension assigns one adversary graph per element and
// updates every edge, requiring all results non-empty and the resulting
// word to be in the surviving set. The search is a DFS over (position in
// padded word, last element graph), with padding decided on the fly.
func (e *chainEngine) hasSurvivingSuccessor(w []uint64) bool {
	type state struct {
		edge   int // next edge of w to consume
		pads   int // padding symbols inserted so far
		lastG  int // index into e.graphs of the previous element's graph
		result []uint64
	}
	var dfs func(st state) bool
	dfs = func(st state) bool {
		if st.edge == len(w) {
			if len(st.result) >= 1 && e.surviving[wordKey(st.result)] {
				return true
			}
			// May still pad at the end.
		}
		if len(st.result) >= e.maxLen {
			return false
		}
		// Option 1: consume the next real edge of w.
		if st.edge < len(w) {
			a := w[st.edge]
			for gi := range e.graphs {
				a2 := updateSet(e.graphs[st.lastG], e.graphs[gi], a)
				if a2 == 0 {
					continue
				}
				if dfs(state{
					edge:   st.edge + 1,
					pads:   st.pads,
					lastG:  gi,
					result: append(st.result, a2),
				}) {
					return true
				}
			}
		}
		// Option 2: insert a padding edge (duplicate the current element).
		if st.pads < e.maxLen { // padding budget bounded by word capacity
			for gi := range e.graphs {
				a2 := updateSet(e.graphs[st.lastG], e.graphs[gi], e.full)
				if a2 == 0 {
					continue
				}
				if dfs(state{
					edge:   st.edge,
					pads:   st.pads + 1,
					lastG:  gi,
					result: append(st.result, a2),
				}) {
					return true
				}
			}
		}
		return false
	}
	// The first element's graph is free.
	for gi := range e.graphs {
		if dfs(state{edge: 0, lastG: gi}) {
			return true
		}
	}
	return false
}

// findAnchoredChain looks for a surviving initial word realized by a chain
// of input assignments from an all-v to an all-w vector (v ≠ w), where the
// edge between consecutive assignments is their equal-coordinate set.
func (e *chainEngine) findAnchoredChain(inputDomain int) ([][]int, []uint64, bool) {
	vectors := allVectors(e.n, inputDomain)
	var inputs [][]int
	var word []uint64
	var dfs func(cur []int) bool
	dfs = func(cur []int) bool {
		if v, valent := valentValue(cur); valent && len(inputs) > 1 {
			if v0, _ := valentValue(inputs[0]); v0 != v && e.surviving[wordKey(word)] {
				return true
			}
		}
		if len(word) == e.maxLen {
			return false
		}
		for _, next := range vectors {
			a := equalCoords(cur, next)
			if a == 0 {
				continue
			}
			inputs = append(inputs, next)
			word = append(word, a)
			if dfs(next) {
				return true
			}
			inputs = inputs[:len(inputs)-1]
			word = word[:len(word)-1]
		}
		return false
	}
	for _, start := range vectors {
		if _, valent := valentValue(start); !valent {
			continue
		}
		inputs = append(inputs[:0], start)
		word = word[:0]
		if dfs(start) {
			out := make([][]int, len(inputs))
			for i := range inputs {
				out[i] = append([]int(nil), inputs[i]...)
			}
			return out, append([]uint64(nil), word...), true
		}
	}
	return nil, nil, false
}

func wordKey(w []uint64) string {
	var sb strings.Builder
	sb.Grow(len(w))
	for _, a := range w {
		sb.WriteByte(byte(a))
	}
	return sb.String()
}
