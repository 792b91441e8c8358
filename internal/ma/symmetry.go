package ma

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"topocon/internal/graph"
)

// Symmetry detection: the automorphism group of an adversary's graph
// language. A process permutation σ is an automorphism when relabeling
// every communication graph of every admissible sequence by σ yields
// exactly the same adversary — behaviourally, not syntactically. The
// prefix space of such an adversary is invariant under σ, so the
// topological analysis only needs one representative per orbit
// (DESIGN.md §13); internal/topo quotients its frontier by the group
// returned here.

const (
	// maxAutoN bounds the permutation enumeration: Automorphisms inspects
	// all n! candidate permutations, which is fine through n=7 (5040) and
	// pointless beyond — frontier sizes cap practical n well below that.
	maxAutoN = 7
	// MaxGroupOrder bounds the accepted group order. The quotient layer
	// keeps one stabilizer bitmask per interned item, so the group must
	// fit a uint64; larger groups (S₅ already has order 120) fall back to
	// the trivial group, which is always sound.
	MaxGroupOrder = 64
	// autoPairCap bounds the bisimulation state-pair exploration per
	// candidate permutation. Automata that blow past it are treated as
	// asymmetric (trivial group) rather than risking an unsound accept.
	autoPairCap = 4096
)

// Group is a permutation group acting on the process set [0,n) and,
// optionally, on the input values: the symmetry group a consensus session
// quotients its prefix space by (DESIGN.md §13). An element is a pair
// (σ, π) of a process permutation σ and a value permutation π; π is the
// identity in a group without a value part. Element 0 is always the
// identity. Groups are immutable.
//
// Renaming input values is a symmetry of every consensus instance:
// termination, agreement and validity survive it, whatever the adversary.
// So the group Automorphisms returns carries an open value part, the
// symmetric group of whatever input domain the session uses, and OnDomain
// resolves it over a concrete domain to the product G × Sym(V). The
// trivial group (TrivialGroup) has no value part.
type Group struct {
	n     int
	elems [][]int // elems[k][p] = image of process p under element k
	inv   [][]int // inv[k] is the inverse permutation of elems[k]
	// values reports that the group has a value part. domain is the size
	// of the value domain it acts on, 0 while the part is open (not yet
	// resolved by OnDomain), and vals[k][x] the image of value x under
	// element k once it is resolved.
	values bool
	domain int
	vals   [][]int
	fp     string
}

// TrivialGroup returns the group containing only the identity on n
// processes, with no value part.
func TrivialGroup(n int) *Group {
	id := make([]int, n)
	for p := range id {
		id[p] = p
	}
	return newGroup(n, [][]int{id})
}

func newGroup(n int, elems [][]int) *Group {
	return finishGroup(&Group{n: n, elems: elems})
}

// withOpenValues returns the process group elems with an open value part.
func withOpenValues(n int, elems [][]int) *Group {
	return finishGroup(&Group{n: n, elems: elems, values: true})
}

// finishGroup fills the inverses and the fingerprint of g.
func finishGroup(g *Group) *Group {
	g.inv = make([][]int, len(g.elems))
	for k, perm := range g.elems {
		inv := make([]int, g.n)
		for p, q := range perm {
			inv[q] = p
		}
		g.inv[k] = inv
	}
	h := sha256.New()
	fmt.Fprintf(h, "n=%d;m=%d;", g.n, len(g.elems))
	for _, perm := range g.elems {
		for _, q := range perm {
			fmt.Fprintf(h, "%d,", q)
		}
		h.Write([]byte(";"))
	}
	if g.values {
		// A group without a value part keeps the fingerprint it always had.
		fmt.Fprintf(h, "values=%d;", g.domain)
		for _, perm := range g.vals {
			for _, y := range perm {
				fmt.Fprintf(h, "%d,", y)
			}
			h.Write([]byte(";"))
		}
	}
	g.fp = hex.EncodeToString(h.Sum(nil))
	return g
}

// OnDomain resolves the group's open value part over the input domain
// {0, …, d-1}: it returns the product of the process group with Sym(V),
// whose elements (σ_a, π_b) are numbered b·|G| + a, value permutations in
// lexicographic order with the identity first. The first |G| elements are
// therefore the process group itself. When the product is out of bounds —
// |G|·d! past MaxGroupOrder, the limit of the stabilizer masks, or more
// than graph.MaxQuotientNodes processes — or d < 2, where Sym(V) is trivial, it
// returns the process group alone, without a value part. A group without
// an open value part is returned as it is.
func (g *Group) OnDomain(d int) *Group {
	if !g.values || g.domain != 0 {
		return g
	}
	m := len(g.elems)
	order := m
	for x := 2; x <= d && order <= MaxGroupOrder; x++ {
		order *= x
	}
	if d < 2 || order > MaxGroupOrder || g.n > graph.MaxQuotientNodes {
		return newGroup(g.n, g.elems)
	}
	var perms [][]int
	perm := make([]int, d)
	for x := range perm {
		perm[x] = x
	}
	permute(perm, 0, func(p []int) { perms = append(perms, append([]int(nil), p...)) })
	canonicalizeGroup(perms)
	elems := make([][]int, 0, order)
	vals := make([][]int, 0, order)
	for _, pi := range perms {
		for _, sigma := range g.elems {
			elems = append(elems, sigma)
			vals = append(vals, pi)
		}
	}
	return finishGroup(&Group{n: g.n, elems: elems, values: true, domain: d, vals: vals})
}

// N returns the number of processes the group acts on.
func (g *Group) N() int { return g.n }

// Order returns the number of group elements.
func (g *Group) Order() int { return len(g.elems) }

// Trivial reports whether the group is just the identity.
func (g *Group) Trivial() bool { return len(g.elems) <= 1 }

// Elem returns the process part of group element k as a permutation
// (image-indexed: Elem(k)[p] is where p goes). Element 0 is the identity.
// The returned slice must not be mutated.
func (g *Group) Elem(k int) []int { return g.elems[k] }

// Inv returns the inverse of the process part of group element k. The
// returned slice must not be mutated.
func (g *Group) Inv(k int) []int { return g.inv[k] }

// Domain returns the size of the value domain the group's value part acts
// on: 0 when the group has none, or while it is open (see OnDomain).
func (g *Group) Domain() int { return g.domain }

// Values returns the value part of group element k as a permutation of the
// domain (Values(k)[x] is where value x goes), or nil when the group has
// no resolved value part. The returned slice must not be mutated.
func (g *Group) Values(k int) []int {
	if g.vals == nil {
		return nil
	}
	return g.vals[k]
}

// MovesValues reports whether element k's value part is not the
// identity. Such an element relabels processes as the element with the
// same process part and the identity on values does, so paths that read
// only process structure — heard masks, graphs, decision times — may skip
// it.
func (g *Group) MovesValues(k int) bool {
	if g.vals == nil {
		return false
	}
	for x, y := range g.vals[k] {
		if x != y {
			return true
		}
	}
	return false
}

// Value returns the image of input value x under element k: x itself when
// the group has no resolved value part or x lies outside its domain.
func (g *Group) Value(k, x int) int {
	if g.vals == nil || x < 0 || x >= g.domain {
		return x
	}
	return g.vals[k][x]
}

// Fingerprint returns a canonical hex hash of the group (node count, the
// sorted element list and the value part, if any). Two adversaries with
// behaviourally equal graph languages get equal group fingerprints; sweep
// cache keys include it so orbit-quotiented verdicts never collide with
// differently-grouped ones.
func (g *Group) Fingerprint() string { return g.fp }

// Automorphisms computes the automorphism group of the adversary's graph
// language: all process permutations σ such that relabeling every graph
// of every admissible sequence by σ yields the same adversary. The check
// is exact (a σ-twisted bisimulation over the reachable automaton), so
// the result is independent of the adversary's syntactic construction.
//
// Fallbacks to the trivial process group — always sound, the quotient
// just degenerates to the identity — happen when n > 7 (enumeration cost),
// when the group order would exceed MaxGroupOrder, or when an automaton
// is too large to verify within the exploration cap.
//
// The returned group carries an open value part: relabeling input values
// is a symmetry of every consensus instance, so a session resolves it
// over its input domain (OnDomain) and quotients by G × Sym(V).
func Automorphisms(a Adversary) *Group {
	a = Normalize(a)
	n := a.N()
	if n > maxAutoN {
		return withOpenValues(n, TrivialGroup(n).elems)
	}
	var accepted [][]int
	overflow := false
	perm := make([]int, n)
	for p := range perm {
		perm[p] = p
	}
	permute(perm, 0, func(candidate []int) {
		if overflow || len(accepted) > MaxGroupOrder {
			return
		}
		ok, fits := isAutomorphism(a, candidate)
		if !fits {
			overflow = true
			return
		}
		if ok {
			accepted = append(accepted, append([]int(nil), candidate...))
		}
	})
	// The exact check makes the accepted set a group automatically; keep a
	// closure sanity check anyway so a checker bug can only ever degrade
	// to the (sound) trivial group instead of corrupting orbit accounting.
	if overflow || len(accepted) > MaxGroupOrder || !closedUnderComposition(n, accepted) {
		return withOpenValues(n, TrivialGroup(n).elems)
	}
	canonicalizeGroup(accepted)
	return withOpenValues(n, accepted)
}

// permute enumerates all permutations of perm[at:] in place (Heap-style
// recursion), invoking visit with the full permutation each time.
func permute(perm []int, at int, visit func([]int)) {
	if at == len(perm) {
		visit(perm)
		return
	}
	for i := at; i < len(perm); i++ {
		perm[at], perm[i] = perm[i], perm[at]
		permute(perm, at+1, visit)
		perm[at], perm[i] = perm[i], perm[at]
	}
}

// isAutomorphism checks whether σ is an automorphism of a's graph
// language by a σ-twisted bisimulation: state pairs (s,t) must agree on
// Done, and for every choice g of s, σ(g) must be a choice of t with the
// successors again related. fits=false reports that the exploration
// exceeded autoPairCap before completing.
func isAutomorphism(a Adversary, sigma []int) (ok, fits bool) {
	// Oblivious fast path: the language is the ω-power of the graph set,
	// so σ is an automorphism iff the set is closed under relabeling.
	if o, isOb := a.(*Oblivious); isOb {
		keys := make(map[string]bool, len(o.graphs))
		for _, g := range o.graphs {
			keys[g.Key()] = true
		}
		for _, g := range o.graphs {
			if !keys[g.Relabel(sigma).Key()] {
				return false, true
			}
		}
		return true, true
	}
	type pair struct{ s, t State }
	start := a.Start()
	seen := map[pair]bool{{start, start}: true}
	queue := []pair{{start, start}}
	for len(queue) > 0 {
		pr := queue[0]
		queue = queue[1:]
		if a.Done(pr.s) != a.Done(pr.t) {
			return false, true
		}
		cs, ct := a.Choices(pr.s), a.Choices(pr.t)
		if len(cs) != len(ct) {
			return false, true
		}
		byKey := make(map[string]graph.Graph, len(ct))
		for _, g := range ct {
			byKey[g.Key()] = g
		}
		for _, g := range cs {
			img, okT := byKey[g.Relabel(sigma).Key()]
			if !okT {
				return false, true
			}
			next := pair{a.Step(pr.s, g), a.Step(pr.t, img)}
			if !seen[next] {
				if len(seen) >= autoPairCap {
					return false, false
				}
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return true, true
}

// closedUnderComposition verifies that the permutation set is a group
// (contains the identity, as enumeration always visits it, and is closed
// under composition — finiteness then gives inverses for free).
func closedUnderComposition(n int, perms [][]int) bool {
	keys := make(map[string]bool, len(perms))
	enc := func(p []int) string {
		b := make([]byte, n)
		for i, q := range p {
			b[i] = byte(q)
		}
		return string(b)
	}
	for _, p := range perms {
		keys[enc(p)] = true
	}
	comp := make([]int, n)
	for _, p := range perms {
		for _, q := range perms {
			for i := 0; i < n; i++ {
				comp[i] = q[p[i]]
			}
			if !keys[enc(comp)] {
				return false
			}
		}
	}
	return true
}

// canonicalizeGroup orders elements lexicographically with the identity
// first, making Group fingerprints and element indices deterministic.
func canonicalizeGroup(perms [][]int) {
	less := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	// Insertion sort: group orders are ≤ MaxGroupOrder.
	for i := 1; i < len(perms); i++ {
		for j := i; j > 0 && less(perms[j], perms[j-1]); j-- {
			perms[j], perms[j-1] = perms[j-1], perms[j]
		}
	}
}
