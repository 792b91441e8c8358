package ma

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"

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
	pinv  [][]int // pinv[k] is the inverse permutation of elems[k]
	// mul[a·|G|+b] is the index of the element a∘b (b applied first) and
	// inv[a] the index of a's inverse: the multiplication table every
	// subgroup helper below, the labelled union-find and the
	// orbit-canonical interner compose elements by.
	mul, inv []uint8
	// values reports that the group has a value part. domain is the size
	// of the value domain it acts on, 0 while the part is open (not yet
	// resolved by OnDomain), and vals[k][x] the image of value x under
	// element k once it is resolved.
	values bool
	domain int
	vals   [][]int
	fp     string
}

// maxValueDomain bounds the value domain NewGroup accepts.
const maxValueDomain = 64

// TrivialGroup returns the group containing only the identity on n
// processes, with no value part.
func TrivialGroup(n int) *Group {
	id := make([]int, n)
	for p := range id {
		id[p] = p
	}
	return finishGroup(&Group{n: n, elems: [][]int{id}, mul: []uint8{0}, inv: []uint8{0}})
}

// NewGroup returns the group whose element k pairs the process
// permutation perms[k] with the input-value permutation vals[k] (vals nil
// for a group without a value part), numbered in the given order:
// perms[k][p] is the image of process p and vals[k][x] the image of value
// x. It errors unless element 0 is the identity, every element is a
// permutation of the same 1..graph.MaxNodes processes (and of the same
// values), no element repeats and the set is closed under composition,
// with at most MaxGroupOrder elements. The group keeps the slices, which
// must not be mutated afterwards.
func NewGroup(perms, vals [][]int) (*Group, error) {
	m := len(perms)
	if m == 0 || m > MaxGroupOrder {
		return nil, fmt.Errorf("ma: group order %d outside 1..%d", m, MaxGroupOrder)
	}
	n, d := len(perms[0]), 0
	if n < 1 || n > graph.MaxNodes {
		return nil, fmt.Errorf("ma: group acts on %d processes, want 1..%d", n, graph.MaxNodes)
	}
	if vals != nil {
		if len(vals) != m {
			return nil, fmt.Errorf("ma: value part of %d elements, want %d", len(vals), m)
		}
		if d = len(vals[0]); d < 1 || d > maxValueDomain {
			return nil, fmt.Errorf("ma: value part acts on %d values, want 1..%d", d, maxValueDomain)
		}
	}
	for k, perm := range perms {
		if !isPerm(perm, n, k == 0) || (vals != nil && !isPerm(vals[k], d, k == 0)) {
			if k == 0 {
				return nil, errors.New("ma: group element 0 is not the identity")
			}
			return nil, fmt.Errorf("ma: group element %d is not a permutation", k)
		}
	}
	g := &Group{n: n, elems: perms, values: vals != nil, domain: d, vals: vals}
	if err := g.buildTable(); err != nil {
		return nil, err
	}
	return finishGroup(g), nil
}

// isPerm reports whether perm is a permutation of {0, …, size-1}, and
// the identity when identity is set.
func isPerm(perm []int, size int, identity bool) bool {
	if len(perm) != size {
		return false
	}
	var seen uint64
	for p, q := range perm {
		if q < 0 || q >= size || seen&(1<<uint(q)) != 0 || (identity && q != p) {
			return false
		}
		seen |= 1 << uint(q)
	}
	return true
}

// buildTable fills the multiplication and inverse tables from the
// elements, each identified by its process images and then its value
// images. It fails when an element repeats an earlier one or the product
// of two elements is none of them. Element 0 must be the identity.
func (g *Group) buildTable() error {
	m, n := len(g.elems), g.n
	buf := make([]byte, n+g.domain)
	key := func(k int) string {
		for p, q := range g.elems[k] {
			buf[p] = byte(q)
		}
		for x := 0; x < g.domain; x++ {
			buf[n+x] = byte(g.vals[k][x])
		}
		return string(buf)
	}
	index := make(map[string]uint8, m)
	for k := range g.elems {
		if _, dup := index[key(k)]; dup {
			return fmt.Errorf("ma: group element %d repeats an earlier one", k)
		}
		index[key(k)] = uint8(k)
	}
	g.mul, g.inv = make([]uint8, m*m), make([]uint8, m)
	for a, pa := range g.elems {
		for b, pb := range g.elems {
			for p, q := range pb {
				buf[p] = byte(pa[q])
			}
			for x := 0; x < g.domain; x++ {
				buf[n+x] = byte(g.vals[a][g.vals[b][x]])
			}
			ab, ok := index[string(buf)]
			if !ok {
				return errors.New("ma: group is not closed under composition")
			}
			g.mul[a*m+b] = ab
			if ab == 0 {
				g.inv[a] = uint8(b)
			}
		}
	}
	return nil
}

// finishGroup fills the inverse permutations and the fingerprint of g,
// whose elements and tables are set.
func finishGroup(g *Group) *Group {
	g.pinv = make([][]int, len(g.elems))
	for k, perm := range g.elems {
		inv := make([]int, g.n)
		for p, q := range perm {
			inv[q] = p
		}
		g.pinv[k] = inv
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
		return finishGroup(&Group{n: g.n, elems: g.elems, mul: g.mul, inv: g.inv})
	}
	var perms [][]int
	perm := make([]int, d)
	for x := range perm {
		perm[x] = x
	}
	permute(perm, 0, func(p []int) { perms = append(perms, append([]int(nil), p...)) })
	canonicalizeGroup(perms)
	sym := &Group{n: d, elems: perms}
	_ = sym.buildTable() // Sym(V) is a group: no error
	// (σ_a, π_b)∘(σ_a', π_b') = (σ_a∘σ_a', π_b∘π_b'), so the product's
	// table is read off the factors'.
	p := &Group{n: g.n, values: true, domain: d,
		elems: make([][]int, 0, order), vals: make([][]int, 0, order),
		mul: make([]uint8, order*order), inv: make([]uint8, order)}
	for b, pi := range perms {
		for a, sigma := range g.elems {
			p.elems = append(p.elems, sigma)
			p.vals = append(p.vals, pi)
			k := b*m + a
			p.inv[k] = sym.inv[b]*uint8(m) + g.inv[a]
			for b2 := range perms {
				row := p.mul[k*order+b2*m : k*order+(b2+1)*m]
				for a2 := range row {
					row[a2] = sym.mul[b*len(perms)+b2]*uint8(m) + g.mul[a*m+a2]
				}
			}
		}
	}
	return finishGroup(p)
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

// InvPerm returns the inverse of the process part of group element k.
// The returned slice must not be mutated.
func (g *Group) InvPerm(k int) []int { return g.pinv[k] }

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

// Mul returns the element a∘b (b applied first).
func (g *Group) Mul(a, b uint8) uint8 { return g.mul[int(a)*len(g.inv)+int(b)] }

// Quo returns a∘b⁻¹, the element carrying σ_b·x to σ_a·x.
func (g *Group) Quo(a, b uint8) uint8 {
	if a|b == 0 {
		return 0
	}
	return g.Mul(a, g.inv[b])
}

// Inv returns the inverse of element a.
func (g *Group) Inv(a uint8) uint8 { return g.inv[a] }

// Table returns the multiplication table — mul[a·|G|+b] is a∘b, b applied
// first — and the inverse of every element, for loops that index them
// directly. The slices are shared and must not be mutated.
func (g *Group) Table() (mul, inv []uint8) { return g.mul, g.inv }

// Subgroups are bitmasks over element indices: bit h is set iff element h
// belongs to the subgroup.

// Index returns |G| / |H|, the number of cosets of subgroup h.
func (g *Group) Index(h uint64) int { return len(g.inv) / bits.OnesCount64(h) }

// Conj returns the conjugate x·H·x⁻¹ of the element set h.
func (g *Group) Conj(x uint8, h uint64) uint64 {
	if x == 0 || h == 1 {
		return h
	}
	xi := g.inv[x]
	var out uint64
	for rest := h; rest != 0; rest &= rest - 1 {
		out |= 1 << g.Mul(g.Mul(x, uint8(bits.TrailingZeros64(rest))), xi)
	}
	return out
}

// Closure returns the subgroup generated by the element set h (the
// identity included). In a finite group closing under products suffices.
func (g *Group) Closure(h uint64) uint64 {
	m := len(g.inv)
	h |= 1
	for {
		next := h
		for a := h &^ 1; a != 0; a &= a - 1 {
			row := g.mul[bits.TrailingZeros64(a)*m:]
			for b := h &^ 1; b != 0; b &= b - 1 {
				next |= 1 << row[bits.TrailingZeros64(b)]
			}
		}
		if next == h {
			return h
		}
		h = next
	}
}

// MinCoset returns the least element of the double coset H·x·S: the
// identity, without a scan, when H or S is the whole group.
func (g *Group) MinCoset(h uint64, x uint8, s uint64) uint8 {
	if full := ^uint64(0) >> uint(64-len(g.inv)); h == full || s == full {
		return 0
	}
	best := x
	for a := h; a != 0; a &= a - 1 {
		hx := g.Mul(uint8(bits.TrailingZeros64(a)), x)
		for b := s; b != 0; b &= b - 1 {
			if e := g.Mul(hx, uint8(bits.TrailingZeros64(b))); e < best {
				best = e
			}
		}
	}
	return best
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
	var accepted [][]int
	overflow := n > maxAutoN
	perm := make([]int, n)
	for p := range perm {
		perm[p] = p
	}
	if !overflow {
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
	}
	canonicalizeGroup(accepted)
	g := &Group{n: n, elems: accepted, values: true}
	// The exact check makes the accepted set a group automatically; the
	// table build checks closure anyway, so a checker bug can only ever
	// degrade to the (sound) trivial group instead of corrupting orbit
	// accounting.
	if overflow || len(accepted) == 0 || len(accepted) > MaxGroupOrder || g.buildTable() != nil {
		g = &Group{n: n, elems: [][]int{perm}, mul: []uint8{0}, inv: []uint8{0}, values: true}
	}
	return finishGroup(g)
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
