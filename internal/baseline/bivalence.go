// Package baseline implements the classic combinatorial counterparts the
// paper compares against: automated bivalence proofs in the style of
// Santoro-Widmayer [21] / FLP [10] (Section 6.1), the heard-set broadcast
// automaton underlying oblivious broadcastability analysis, and flooding
// consensus baselines (package sim hosts the runnable algorithms).
package baseline

import (
	"fmt"
	"strings"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// BivalenceCertificate proves consensus impossibility for an oblivious
// adversary: a self-sustaining chain schema in the agreement-set
// abstraction.
//
// A chain at horizon t is a sequence of admissible runs r_0 .. r_k, all with
// t rounds, where consecutive runs are indistinguishable to some process,
// r_0 is v-valent and r_k is w-valent (v ≠ w). The only information about a
// pair of runs that matters for extending it by one round is its agreement
// set A = {q : V_q equal}: appending graphs g to the left run and h to the
// right run yields the new agreement set
//
//	A' = {p : In_p(g) = In_p(h) and In_p(g) ⊆ A}.
//
// A chain survives one round if its elements can pick graphs making every
// consecutive agreement set non-empty; elements may first be duplicated
// (subdivision), which inserts a full-set edge — this is how the classic
// proofs grow their chains. The certificate is an initial chain (over input
// assignments, whose agreement sets are the equal-coordinate sets) that
// lies in the greatest fixpoint of "has a surviving successor chain".
//
// Soundness: by induction on t, a certificate yields, for every horizon, a
// chain of admissible runs connecting differently-valent runs with
// consecutive indistinguishability — i.e. a mixed component at every
// resolution, the forever-bivalent run family of Section 6.1. For a compact
// adversary, König's lemma turns "no horizon separates" into "no algorithm
// decides all runs by any bounded round", so consensus is impossible
// (Corollary 5.6 / Theorem 5.4).
type BivalenceCertificate struct {
	// InitialInputs is the chain of input assignments anchoring the schema.
	InitialInputs [][]int
	// InitialWord is the corresponding agreement-set word.
	InitialWord []uint64
	// Surviving is the number of chain words in the greatest fixpoint.
	Surviving int
}

// String renders the certificate compactly.
func (c *BivalenceCertificate) String() string {
	parts := make([]string, len(c.InitialWord))
	for i, a := range c.InitialWord {
		parts[i] = graph.FormatNodeSet(a)
	}
	return fmt.Sprintf("bivalent chain of %d inputs, agreement word %s (surviving words: %d)",
		len(c.InitialInputs), strings.Join(parts, ","), c.Surviving)
}

// ProveBivalent searches for a bivalence certificate for the oblivious
// adversary over the given input domain, considering chain words of up to
// maxChainLen agreement sets. It returns (certificate, true) when consensus
// is certifiably impossible; (nil, false) means no certificate of that size
// exists (which does not by itself imply solvability). A word space of
// more than maxChainWords longest words is declined with (nil, false).
func ProveBivalent(adv *ma.Oblivious, inputDomain, maxChainLen int) (*BivalenceCertificate, bool) {
	if maxChainLen < 1 || adv.N() > 8 {
		// Agreement sets are encoded as single bytes in word letters.
		return nil, false
	}
	if !chainWordsFit(adv.N(), maxChainLen) {
		return nil, false
	}
	return newChainKernel(adv, maxChainLen).prove(inputDomain)
}

// prove runs the fixpoint and then looks for an anchored initial chain.
func (k *chainKernel) prove(inputDomain int) (*BivalenceCertificate, bool) {
	surviving := k.computeSurvivors()
	if surviving == 0 {
		return nil, false
	}
	inputs, word, ok := k.findAnchoredChain(inputDomain)
	if !ok {
		return nil, false
	}
	return &BivalenceCertificate{
		InitialInputs: inputs,
		InitialWord:   word,
		Surviving:     surviving,
	}, true
}

// updateSet computes A' = {p : In_p(g) = In_p(h), In_p(g) ⊆ A}.
func updateSet(g, h graph.Graph, a uint64) uint64 {
	var out uint64
	for p := 0; p < g.N(); p++ {
		in := g.In(p)
		if in == h.In(p) && in&^a == 0 {
			out |= 1 << uint(p)
		}
	}
	return out
}

// maxChainWords caps the number of words of the longest length the search
// enumerates (the kernel keeps a few bytes per word).
const maxChainWords = 1 << 22

// chainWordsFit reports whether the words of length maxLen over the
// 2ⁿ−1 agreement sets stay within maxChainWords; beyond it no certificate
// of that size is searched for.
func chainWordsFit(n, maxLen int) bool {
	words, full := 1, int(graph.AllNodes(n))
	for l := 0; l < maxLen; l++ {
		if words *= full; words > maxChainWords {
			return false
		}
	}
	return true
}

// maxSeenStates caps the successor search's visited-state table; above it
// the search runs without the table (same answer, more re-exploration;
// TestChainKernelMatchesOracle runs both modes).
const maxSeenStates = 1 << 24

// chainKernel computes the greatest fixpoint of surviving chain words: the
// largest set S of words (non-empty agreement sets, length ≤ maxLen) in
// which every word has a successor — a padded-and-extended version, see
// search — that is again in S.
//
// Words are dense integer ids: the empty word is 0, and the words of
// length l occupy [offset[l], offset[l+1]) in base-full order of their
// letters (letter a ↦ digit a-1), so appending a letter is id arithmetic.
// The fixpoint is a witness worklist: every word records the successor
// that keeps it alive and sits on that successor's watcher list; a word is
// rechecked only when its witness dies. The removal order does not change
// the result — the greatest fixpoint of a monotone operator is unique.
type chainKernel struct {
	n, maxLen int
	full      int // the full agreement set; letters are sets 1..full
	ng        int // graph count
	// upd[(g*ng+h)*(full+1)+a] is updateSet(graphs[g], graphs[h], a).
	upd    []uint8
	offset []int // offset[l] is the first id of length l; offset[maxLen+1] the id count
	// letters[id*maxLen:][:length[id]] spells word id.
	letters []uint8
	length  []uint8
	alive   []bool
	// ext[id] counts the alive words that have word id as a prefix (itself
	// included); a partial successor no alive word extends is pruned.
	ext []int32
	// watchHead[u] is the first word whose witness is u, -1 for none;
	// watchNext chains the rest. Every word is on at most one list.
	watchHead, watchNext []int32
	// seen stamps explored search states (edge, last graph, partial id)
	// with the current check's epoch; nil above maxSeenStates.
	seen  []uint32
	epoch uint32
	// The word under check and the witness its search found.
	w     []uint8
	found int
}

func newChainKernel(adv *ma.Oblivious, maxLen int) *chainKernel {
	n := adv.N()
	full := int(graph.AllNodes(n))
	graphs := adv.Graphs()
	k := &chainKernel{n: n, full: full, maxLen: maxLen, ng: len(graphs)}
	k.upd = make([]uint8, k.ng*k.ng*(full+1))
	for g := range graphs {
		for h := range graphs {
			row := k.upd[(g*k.ng+h)*(full+1):]
			for a := 0; a <= full; a++ {
				row[a] = uint8(updateSet(graphs[g], graphs[h], uint64(a)))
			}
		}
	}
	k.offset = make([]int, maxLen+2)
	k.offset[1] = 1
	size := 1
	for l := 1; l <= maxLen; l++ {
		size *= k.full
		k.offset[l+1] = k.offset[l] + size
	}
	words := k.offset[maxLen+1]
	k.letters = make([]uint8, words*maxLen)
	k.length = make([]uint8, words)
	for l := 1; l <= maxLen; l++ {
		for id := k.offset[l]; id < k.offset[l+1]; id++ {
			k.length[id] = uint8(l)
			code := id - k.offset[l]
			for i := l - 1; i >= 0; i-- {
				k.letters[id*maxLen+i] = uint8(code%k.full + 1)
				code /= k.full
			}
		}
	}
	if states := (maxLen + 1) * k.ng * words; states <= maxSeenStates {
		k.seen = make([]uint32, states)
	}
	return k
}

// computeSurvivors runs the witness worklist to the greatest fixpoint and
// returns the number of surviving words.
func (k *chainKernel) computeSurvivors() int {
	words := k.offset[k.maxLen+1]
	k.alive = make([]bool, words)
	k.ext = make([]int32, words)
	k.watchHead = make([]int32, words)
	k.watchNext = make([]int32, words)
	for id := 1; id < words; id++ {
		k.alive[id] = true
		k.watchHead[id] = -1
		for p := id; p > 0; p = k.parent(p) {
			k.ext[p]++
		}
	}
	surviving := words - 1
	var dead []int32
	kill := func(id int) {
		k.alive[id] = false
		surviving--
		for p := id; p > 0; p = k.parent(p) {
			k.ext[p]--
		}
		dead = append(dead, int32(id))
	}
	check := func(id int) {
		if k.findWitness(id) {
			k.watchNext[id] = k.watchHead[k.found]
			k.watchHead[k.found] = int32(id)
		} else {
			kill(id)
		}
	}
	for id := 1; id < words; id++ {
		if k.alive[id] {
			check(id)
		}
		for len(dead) > 0 {
			u := dead[len(dead)-1]
			dead = dead[:len(dead)-1]
			w := k.watchHead[u]
			k.watchHead[u] = -1
			for w >= 0 {
				next := k.watchNext[w]
				if k.alive[w] {
					check(int(w))
				}
				w = next
			}
		}
	}
	return surviving
}

// parent returns the id of word id without its last letter (0 for a
// one-letter word).
func (k *chainKernel) parent(id int) int {
	l := int(k.length[id])
	return k.offset[l-1] + (id-k.offset[l])/k.full
}

// findWitness searches a surviving successor of word id, leaving it in
// k.found.
func (k *chainKernel) findWitness(id int) bool {
	k.w = k.letters[id*k.maxLen : id*k.maxLen+int(k.length[id])]
	if k.seen != nil {
		k.epoch++
		if k.epoch == 0 {
			clear(k.seen)
			k.epoch = 1
		}
	}
	// The first element's graph is free.
	for g := 0; g < k.ng; g++ {
		if k.search(0, g, 0, 0) {
			return true
		}
	}
	return false
}

// search extends a partial successor of k.w: edge letters of w consumed,
// the previous element playing graph last, and ln letters of the result
// spelled by code. Each step either consumes the next real edge of w or
// inserts a padding edge (duplicating the current element, agreement set
// full); the next element picks any graph and the edge's agreement set
// updates, and must stay non-empty. A result that consumed all of w and is
// alive is a witness.
func (k *chainKernel) search(edge, last, ln, code int) bool {
	id := k.offset[ln] + code
	if edge == len(k.w) && ln >= 1 && k.alive[id] {
		k.found = id
		return true
	}
	if ln+len(k.w)-edge >= k.maxLen+1 || ln >= k.maxLen {
		return false // the rest of w no longer fits
	}
	if k.seen != nil {
		st := (edge*k.ng+last)*len(k.alive) + id
		if k.seen[st] == k.epoch {
			return false
		}
		k.seen[st] = k.epoch
	}
	base := k.offset[ln+1]
	stride := k.full + 1
	if edge < len(k.w) {
		a := int(k.w[edge])
		for g := 0; g < k.ng; g++ {
			a2 := int(k.upd[(last*k.ng+g)*stride+a])
			if a2 == 0 {
				continue
			}
			c := code*k.full + a2 - 1
			if k.ext[base+c] > 0 && k.search(edge+1, g, ln+1, c) {
				return true
			}
		}
	}
	for g := 0; g < k.ng; g++ {
		a2 := int(k.upd[(last*k.ng+g)*stride+k.full])
		if a2 == 0 {
			continue
		}
		c := code*k.full + a2 - 1
		if k.ext[base+c] > 0 && k.search(edge, g, ln+1, c) {
			return true
		}
	}
	return false
}

// wordID returns the dense id of a word of agreement sets.
func (k *chainKernel) wordID(word []uint64) int {
	code := 0
	for _, a := range word {
		code = code*k.full + int(a) - 1
	}
	return k.offset[len(word)] + code
}

// findAnchoredChain looks for a surviving initial word realized by a chain
// of input assignments from an all-v to an all-w vector (v ≠ w), where the
// edge between consecutive assignments is their equal-coordinate set.
func (k *chainKernel) findAnchoredChain(inputDomain int) ([][]int, []uint64, bool) {
	vectors := allVectors(k.n, inputDomain)
	var inputs [][]int
	var word []uint64
	var dfs func(cur []int) bool
	dfs = func(cur []int) bool {
		if v, valent := valentValue(cur); valent && len(inputs) > 1 {
			if v0, _ := valentValue(inputs[0]); v0 != v && k.alive[k.wordID(word)] {
				return true
			}
		}
		if len(word) == k.maxLen {
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

func allVectors(n, domain int) [][]int {
	total := 1
	for i := 0; i < n; i++ {
		total *= domain
	}
	out := make([][]int, 0, total)
	cur := make([]int, n)
	for i := 0; i < total; i++ {
		out = append(out, append([]int(nil), cur...))
		for j := n - 1; j >= 0; j-- {
			cur[j]++
			if cur[j] < domain {
				break
			}
			cur[j] = 0
		}
	}
	return out
}

func valentValue(x []int) (int, bool) {
	for _, v := range x[1:] {
		if v != x[0] {
			return 0, false
		}
	}
	return x[0], true
}

func equalCoords(x, y []int) uint64 {
	var a uint64
	for i := range x {
		if x[i] == y[i] {
			a |= 1 << uint(i)
		}
	}
	return a
}
