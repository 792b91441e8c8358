package ma

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// Fingerprint returns a canonical hash of the adversary's reachable
// automaton explored to the given depth: a hex-encoded SHA-256 over the
// node count and, per reachable state in canonical discovery order, its
// Done flag and its outgoing transitions in canonical graph order
// (graph.Key) with successor states numbered by first discovery.
//
// The hash depends only on the behavioural structure — canonical graph
// forms plus transition shape — not on state representations, Name, or
// construction path: behaviourally isomorphic automata fingerprint
// identically, and the same adversary fingerprints identically across
// processes and runs. Sessions and batch/caching layers can therefore key
// results by (Fingerprint, depth) instead of by unstable display names.
//
// States at exactly the exploration depth contribute their Done flag but
// not their transitions, so Fingerprint(a, d) distinguishes behaviours
// that differ within d rounds and may merge ones that differ only later.
//
// The expression tree is normalized first (see Normalize): algebraic
// identity spellings like Intersect(a, Unrestricted) hash exactly like a,
// so they share one sweep-cache entry instead of re-solving.
func Fingerprint(a Adversary, depth int) string {
	a = Normalize(a)
	h := sha256.New()
	fmt.Fprintf(h, "n=%d;compact=%v;\n", a.N(), a.Compact())

	ids := map[State]int{a.Start(): 0}
	type item struct {
		s State
		d int
	}
	queue := []item{{s: a.Start(), d: 0}}
	for qi := 0; qi < len(queue); qi++ {
		it := queue[qi]
		fmt.Fprintf(h, "%d done=%v", qi, a.Done(it.s))
		if it.d < depth {
			choices := a.Choices(it.s)
			// Canonical transition order: sort by graph key so fingerprints
			// do not depend on an implementation's Choices ordering.
			type edge struct {
				key  string
				next State
			}
			edges := make([]edge, len(choices))
			for i, g := range choices {
				edges[i] = edge{key: g.Key(), next: a.Step(it.s, g)}
			}
			sort.Slice(edges, func(i, j int) bool { return edges[i].key < edges[j].key })
			for _, e := range edges {
				id, seen := ids[e.next]
				if !seen {
					id = len(ids)
					ids[e.next] = id
					queue = append(queue, item{s: e.next, d: it.d + 1})
				}
				fmt.Fprintf(h, " %s->%d", e.key, id)
			}
		} else {
			h.Write([]byte(" ..."))
		}
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FingerprintShort returns the first 16 hex digits of Fingerprint, for
// display contexts.
func FingerprintShort(a Adversary, depth int) string {
	return Fingerprint(a, depth)[:16]
}
