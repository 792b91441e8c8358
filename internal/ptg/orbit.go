package ptg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"topocon/internal/graph"
)

// Orbit-canonical interning (DESIGN.md §13). When the runs under analysis
// are closed under a group G whose elements are pairs (σ, π) of a process
// permutation σ and an input-value permutation π, every cone has up to |G|
// relabeled twins: relabeling by (σ, π) maps each node (p, t) to (σ(p), t)
// and each leaf input x to π(x). An interner given the group by AdoptGroup
// stores one cone per orbit:
//
//   - Leaf and Node find the least C of the requested cone's |G|
//     relabelings (owner first, then the leaf's input or the sorted
//     (process, child ID) pairs; Node prunes the candidates position by
//     position rather than building each one, see orbitNodeKey) and
//     intern only C — its stored index c is dense, so Size() counts
//     orbits;
//   - C's stabilizer Stab(C) = {h : σ_h·C = C} is recorded as a bitmask;
//   - the returned ID is c·|G| + ℓ, where ℓ is the least element of the
//     coset {g : σ_g·C = requested cone} = ℓ·Stab(C).
//
// Equal IDs therefore still mean equal cones: ℓ is a function of the cone,
// not of the element that happened to reach it. Relabeling by element k is
// arithmetic — the twin σ_k·(σ_ℓ·C) = σ_{k∘ℓ}·C has ID c·|G| + the least
// element of (k∘ℓ)·Stab(C) — so no relabel memo is needed anywhere. The
// value part acts on leaves alone: heard masks and in-masks relabel by σ.
//
// On a plain interner (NewInterner, the trivial group) keys, IDs and
// per-call cost are exactly the non-group ones.

// maxGroupOrder bounds |G|: stabilizers are uint64 bitmasks.
const maxGroupOrder = 64

// maxOrbitProcs bounds the process count of an orbit-canonical interner,
// which keeps its per-call scratch in stack arrays of this size.
// ma.Automorphisms detects process groups only up to n = 7; the value
// part alone reaches the same bound (ma.Group.OnDomain).
const maxOrbitProcs = graph.MaxQuotientNodes

// orbitGroup is the permutation group of an orbit-canonical interner, with
// its multiplication table.
type orbitGroup struct {
	m, n int
	// perms[k][p] is the image of process p under element k; perms[0] is
	// the identity.
	perms [][]int
	// d is the size of the value domain the value part acts on, 0 without
	// one, and vals[k][x] the image of input value x under element k.
	d    int
	vals [][]int
	// inv[k] is the index of element k's inverse.
	inv []uint8
	// mul[a*m+b] is the index of σ_a∘σ_b (σ_b applied first).
	mul []uint8
	// least[p] is the least process of p's orbit, and toLeast[p] the mask
	// of the elements mapping p to it: only relabelings owned by least[p]
	// can be a cone's least relabeling.
	least   []int
	toLeast []uint64
	// pinv[k*n+r] is σ_k⁻¹(r), the process element k maps to r.
	pinv []uint8
	// maskTab[(2k+b)*256+v] is the byte v of a process mask at byte b
	// (processes 8b..8b+7) relabeled by element k; see permuteMask.
	maskTab []uint16
	// full is the mask of the whole group.
	full uint64
}

// newOrbitGroup validates perms and vals as a permutation group with the
// identity first and builds its tables. Element k is the pair of the
// process permutation perms[k] and the value permutation vals[k]; vals is
// nil for a group without a value part, and otherwise holds one
// permutation of the same domain {0, …, d-1} per element. A group of order
// 1 yields nil (the plain interner), at any process count a graph
// supports; only a nontrivial group is bounded by maxOrbitProcs.
func newOrbitGroup(perms, vals [][]int) (*orbitGroup, error) {
	m := len(perms)
	if m == 0 || m > maxGroupOrder {
		return nil, fmt.Errorf("ptg: group order %d outside 1..%d", m, maxGroupOrder)
	}
	n := len(perms[0])
	maxN := maxOrbitProcs
	if m == 1 {
		maxN = graph.MaxNodes // the plain interner keeps no per-process scratch
	}
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("ptg: group acts on %d processes, want 1..%d", n, maxN)
	}
	d := 0
	if vals != nil {
		if len(vals) != m {
			return nil, fmt.Errorf("ptg: value part of %d elements, want %d", len(vals), m)
		}
		if d = len(vals[0]); d < 1 || d > maxValueDomain {
			return nil, fmt.Errorf("ptg: value part acts on %d values, want 1..%d", d, maxValueDomain)
		}
	}
	// An element's index key is its process images, then its value images.
	index := make(map[string]int, m)
	valsOf := func(k int) []int {
		if d == 0 {
			return nil
		}
		return vals[k]
	}
	key := func(perm, val []int) string {
		b := make([]byte, 0, n+d)
		for _, q := range perm {
			b = append(b, byte(q))
		}
		for _, y := range val {
			b = append(b, byte(y))
		}
		return string(b)
	}
	for k, perm := range perms {
		if len(perm) != n {
			return nil, fmt.Errorf("ptg: group element %d has %d images, want %d", k, len(perm), n)
		}
		if !isPerm(perm, k == 0) {
			return nil, fmt.Errorf("ptg: group element %d is not a permutation", k)
		}
		if d > 0 && (len(vals[k]) != d || !isPerm(vals[k], k == 0)) {
			return nil, fmt.Errorf("ptg: value part of group element %d is not a permutation", k)
		}
		if _, dup := index[key(perm, valsOf(k))]; dup {
			return nil, fmt.Errorf("ptg: group element %d repeats an earlier one", k)
		}
		index[key(perm, valsOf(k))] = k
	}
	if m == 1 {
		return nil, nil
	}
	g := &orbitGroup{
		m: m, n: n, perms: perms, d: d, vals: vals,
		inv: make([]uint8, m), mul: make([]uint8, m*m),
		least: make([]int, n), toLeast: make([]uint64, n),
		pinv: make([]uint8, m*n), maskTab: make([]uint16, m*2*256),
		full: ^uint64(0) >> uint(64-m),
	}
	for k, perm := range perms {
		for p, q := range perm {
			g.pinv[k*n+q] = uint8(p)
			for v := 0; v < 256; v++ {
				if v&(1<<uint(p%8)) != 0 {
					g.maskTab[(2*k+p/8)*256+v] |= 1 << uint(q)
				}
			}
		}
	}
	comp, compVal := make([]int, n), make([]int, d)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			for p := 0; p < n; p++ {
				comp[p] = perms[a][perms[b][p]]
			}
			for x := 0; x < d; x++ {
				compVal[x] = vals[a][vals[b][x]]
			}
			ab, ok := index[key(comp, compVal)]
			if !ok {
				return nil, errors.New("ptg: group is not closed under composition")
			}
			g.mul[a*m+b] = uint8(ab)
			if ab == 0 {
				g.inv[a] = uint8(b)
			}
		}
	}
	for p := 0; p < n; p++ {
		least := p
		for _, perm := range perms {
			least = min(least, perm[p])
		}
		g.least[p] = least
		for k, perm := range perms {
			if perm[p] == least {
				g.toLeast[p] |= 1 << uint(k)
			}
		}
	}
	return g, nil
}

// maxValueDomain bounds the value domain of a group's value part.
const maxValueDomain = 64

// isPerm reports whether perm is a permutation of {0, …, len(perm)-1},
// and the identity when identity is set.
func isPerm(perm []int, identity bool) bool {
	var seen uint64
	for p, q := range perm {
		if q < 0 || q >= len(perm) || q >= 64 || seen&(1<<uint(q)) != 0 || (identity && q != p) {
			return false
		}
		seen |= 1 << uint(q)
	}
	return true
}

// equal reports whether two groups list the same elements in the same
// order (element indices are part of the ID scheme).
func (g *orbitGroup) equal(o *orbitGroup) bool {
	return o != nil && o.m == g.m && o.n == g.n && o.d == g.d &&
		slices.EqualFunc(o.perms, g.perms, slices.Equal) &&
		(g.d == 0 || slices.EqualFunc(o.vals, g.vals, slices.Equal))
}

// cosetMin returns the least element of the coset e·H, where H is the
// subgroup with bitmask stab (which always holds the identity): e itself
// when H = {e}, and element 0 when H is the whole group.
func (g *orbitGroup) cosetMin(e uint8, stab uint64) uint8 {
	switch stab {
	case 1:
		return e
	case g.full:
		return 0
	}
	best := e
	row := g.mul[int(e)*g.m : int(e+1)*g.m]
	for rest := stab &^ 1; rest != 0; rest &= rest - 1 {
		if x := row[bits.TrailingZeros64(rest)]; x < best {
			best = x
		}
	}
	return best
}

// permuteMask relabels a process mask by element k: bit p moves to
// σ_k(p). Two byte-table lookups, since n ≤ 16.
func (g *orbitGroup) permuteMask(mask uint64, k int) uint64 {
	if k == 0 {
		return mask
	}
	t := g.maskTab[2*k*256 : (2*k+2)*256 : (2*k+2)*256]
	return uint64(t[uint8(mask)] | t[256+int(uint8(mask>>8))])
}

// orbitLabel turns the set arg of elements mapping a requested cone to its
// least relabeling C (star is one of them) into C's stabilizer mask and the
// requested cone's coset label ℓ: σ_g·v = C exactly for g ∈ Stab(C)·star,
// so Stab(C) = {g∘star⁻¹ : g ∈ arg} and the coset {g⁻¹ : g ∈ arg} has least
// element ℓ.
func (g *orbitGroup) orbitLabel(arg uint64, star int) (stab uint64, l uint8) {
	is := int(g.inv[star])
	l = math.MaxUint8
	for rest := arg; rest != 0; rest &= rest - 1 {
		k := bits.TrailingZeros64(rest)
		stab |= 1 << g.mul[k*g.m+is]
		if g.inv[k] < l {
			l = g.inv[k]
		}
	}
	return stab, l
}

// AdoptGroup makes an empty plain interner orbit-canonical under the
// group whose element k is the process permutation perms[k] paired with
// the input-value permutation vals[k] (vals nil for a group without a
// value part), or checks that the interner already canonicalizes by
// exactly that group — element order included, since element indices are
// part of every ID. perms[k][p] is the image of process p and vals[k][x]
// the image of value x under element k, element 0 must be the identity,
// and the set must be closed under composition, with at most 64 elements
// on at most 16 processes; a group of order 1 leaves the interner plain.
// It errors on an invalid group, on a mismatch, and on a non-empty plain
// interner asked for a nontrivial group.
func (in *Interner) AdoptGroup(perms, vals [][]int) error {
	g, err := newOrbitGroup(perms, vals)
	if err != nil {
		return err
	}
	switch {
	case in.grp != nil && g == nil:
		return fmt.Errorf("ptg: interner is orbit-canonical under a group of order %d, not the trivial group", in.grp.m)
	case in.grp != nil:
		if !in.grp.equal(g) {
			return errors.New("ptg: interner is orbit-canonical under a different group")
		}
	case g != nil:
		if in.Size() > 0 {
			return fmt.Errorf("ptg: cannot make a plain interner holding %d cones orbit-canonical", in.Size())
		}
		in.grp = g
		in.limit = int32((math.MaxInt32 + 1) / int64(g.m))
	}
	return nil
}

// GroupOrder returns |G| of the interner's group: 1 for a plain interner.
func (in *Interner) GroupOrder() int {
	if in.grp == nil {
		return 1
	}
	return in.grp.m
}

// trivialTable is the multiplication table of the group of order 1.
var trivialTable = []uint8{0}

// GroupTable returns the multiplication table of the interner's group —
// mul[a·|G|+b] is the index of σ_a∘σ_b (σ_b applied first) — and the index
// of each element's inverse. A plain interner reports the group of order
// 1. The slices are shared; callers must not mutate them.
func (in *Interner) GroupTable() (mul, inv []uint8) {
	if in.grp == nil {
		return trivialTable, trivialTable
	}
	return in.grp.mul, in.grp.inv
}

// OrbitStab returns the stabilizer mask of the stored cone with orbit id c
// (a view's ID divided by |G|): bit h is set iff σ_h maps the cone to
// itself. It is 1, the identity alone, on a plain interner.
func (in *Interner) OrbitStab(c int) uint64 {
	if in.grp == nil {
		return 1
	}
	return in.stabs.at(int32(c))
}

// Relabel returns the ID of cone id relabeled by group element k (element 0
// is the identity; on a plain interner only k = 0 is meaningful). The ID
// must come from this interner; no cone is interned.
func (in *Interner) Relabel(id ViewID, k int) ViewID {
	g := in.grp
	if k == 0 || g == nil {
		return id
	}
	m := int32(g.m)
	c := int32(id) / m
	e := g.cosetMin(g.mul[k*g.m+int(int32(id)-c*m)], in.stabs.at(c))
	return ViewID(c*m + int32(e))
}

// orbitLeaf is Leaf on an orbit-canonical interner: the relabelings of the
// leaf (p, x) are the leaves (σ(p), π(x)), so the least one is owned by
// the least process of p's orbit and holds the least image of x under
// the elements that map p there.
//
//topocon:allocfree
func (in *Interner) orbitLeaf(p, x int) ViewID {
	g := in.grp
	arg := g.toLeast[p]
	if g.d > 0 && x >= 0 && x < g.d {
		var has uint64
		least := x
		for rest := arg; rest != 0; rest &= rest - 1 {
			k := bits.TrailingZeros64(rest)
			switch y := g.vals[k][x]; {
			case has == 0 || y < least:
				has, least = 1<<uint(k), y
			case y == least:
				has |= 1 << uint(k)
			}
		}
		arg, x = has, least
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = 'L'
	n := 1
	n += binary.PutUvarint(buf[n:], uint64(g.least[p]))
	n += binary.PutVarint(buf[n:], int64(x))
	stab, l := g.orbitLabel(arg, bits.TrailingZeros64(arg))
	c, fresh := in.intern(buf[:n])
	if c < 0 {
		return -1
	}
	if fresh {
		in.stabs.add(stab)
		in.heard.add(1 << uint(g.least[p]))
	}
	return ViewID(c*int32(g.m) + int32(l))
}

// orbitNode is Node on an orbit-canonical interner: it interns the key
// orbitNodeKey picks.
//
//topocon:allocfree
func (in *Interner) orbitNode(p int, mask uint64, row []ViewID) ViewID {
	var stack [nodeKeyStackSize]byte
	var kids orbitKids
	key, arg, ok := in.orbitNodeKey(stack[:0], p, mask, row, &kids)
	if !ok {
		return -1
	}
	g := in.grp
	star := bits.TrailingZeros64(arg)
	stab, l := g.orbitLabel(arg, star)
	c, fresh := in.intern(key)
	if c < 0 {
		return -1
	}
	if fresh {
		// The stored cone is σ_star of the requested one, so its heard
		// mask is the children's union relabeled by star.
		var h uint64
		for rest := mask; rest != 0; rest &= rest - 1 {
			q := bits.TrailingZeros64(rest)
			h |= g.permuteMask(in.heard.at(kids.cone[q]), int(kids.label[q]))
		}
		in.stabs.add(stab)
		in.heard.add(g.permuteMask(h, star))
	}
	return ViewID(c*int32(g.m) + int32(l))
}

// orbitKids holds, per process q, the stored cone, coset label and
// stabilizer of a node request's child row[q], as orbitNodeKey reads
// them.
type orbitKids struct {
	cone  [maxOrbitProcs]int32
	label [maxOrbitProcs]uint8
	stab  [maxOrbitProcs]uint64
}

// orbitNodeKey appends to buf the key of the least relabeling of the node
// of p over the masked children in row, and returns the set arg of the
// elements that map the node to it; ok is false when a child has no ID.
// It leaves each masked child's stored cone, label and stabilizer in kids.
// The relabeling by element k is the node of σ_k(p) whose children are the
// children relabeled by k, re-slotted at σ_k(q); relabelings compare as
// their ascending (σ_k(q), child ID) sequences, and only elements that map
// p to its orbit's least process compete.
//
// The candidates are pruned position by position instead of enumerated:
// at image process r = 0, 1, … a candidate k has the pair
// (r, relabel_k(row[σ_k⁻¹(r)])) when σ_k⁻¹(r) is masked. Every surviving
// candidate agrees on all pairs before r, so one with a pair at r is less
// than one without (whose next pair sits at a larger process), and among
// those with a pair the least relabeled ID is least. Survivors keep only
// those; ties survive. This is the lexicographic order over the same
// sequences, so the key and arg are those of enumerating every candidate.
//
//topocon:allocfree
func (in *Interner) orbitNodeKey(buf []byte, p int, mask uint64, row []ViewID, kids *orbitKids) (key []byte, arg uint64, ok bool) {
	g := in.grp
	m := int32(g.m)
	// Each child's stored cone, coset label and stabilizer, indexed by
	// process and read once for every candidate.
	cc, cl, cs := &kids.cone, &kids.label, &kids.stab
	for rest := mask; rest != 0; rest &= rest - 1 {
		q := bits.TrailingZeros64(rest)
		id := row[q]
		if id < 0 {
			return buf, 0, false // a child that hit the ID cap
		}
		c := int32(id) / m
		cc[q], cl[q], cs[q] = c, uint8(int32(id)-c*m), in.stabs.at(c)
	}
	buf = append(buf, 'N')
	buf = binary.AppendUvarint(buf, uint64(g.least[p]))
	arg = g.toLeast[p]
	for r := 0; r < g.n; r++ {
		var has uint64
		var least int32
		for rest := arg; rest != 0; rest &= rest - 1 {
			k := bits.TrailingZeros64(rest)
			q := g.pinv[k*g.n+r]
			if mask&(1<<q) == 0 {
				continue
			}
			e := g.cosetMin(g.mul[k*g.m+int(cl[q])], cs[q])
			switch id := cc[q]*m + int32(e); {
			case has == 0 || id < least:
				has, least = 1<<uint(k), id
			case id == least:
				has |= 1 << uint(k)
			}
		}
		if has != 0 {
			arg = has
			buf = append(buf, byte(r)) // r < 16 is its own one-byte uvarint
			buf = binary.AppendUvarint(buf, uint64(least))
		}
	}
	return buf, arg, true
}
