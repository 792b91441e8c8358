package ptg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// Orbit-canonical interning (DESIGN.md §13). When the runs under analysis
// are closed under a group G whose elements are pairs (σ, π) of a process
// permutation σ and an input-value permutation π, every cone has up to |G|
// relabeled twins: relabeling by (σ, π) maps each node (p, t) to (σ(p), t)
// and each leaf input x to π(x). An interner given the group, an
// ma.Group, by AdoptGroup stores one cone per orbit:
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
// The group owns its element numbering and multiplication table
// (ma.Group.Table), which every ID above is written in; the interner
// shares the table and derives only the lookups of its own key search —
// each process's orbit minimum, the inverse process images and the mask
// relabeling bytes (orbitTables).
//
// On a plain interner (NewInterner, the trivial group) keys, IDs and
// per-call cost are exactly the non-group ones: it keeps its own key path,
// selected by the group order, as the orbit path's candidate search is
// pure overhead under a single element.

// maxOrbitProcs bounds the process count of an orbit-canonical interner,
// which keeps its per-call scratch in stack arrays of this size.
// ma.Automorphisms detects process groups only up to n = 7; the value
// part alone reaches the same bound (ma.Group.OnDomain).
const maxOrbitProcs = graph.MaxQuotientNodes

// orbitGroup is the group of an orbit-canonical interner with the tables
// the interner derives from it.
type orbitGroup struct {
	grp  *ma.Group
	m, n int
	// mul and inv are the group's own multiplication table and element
	// inverses (ma.Group.Table): mul[a*m+b] is the index of σ_a∘σ_b (σ_b
	// applied first), inv[k] the index of element k's inverse.
	mul, inv []uint8
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

// orbitTables derives the interner's tables from a nontrivial group on
// at most maxOrbitProcs processes.
func orbitTables(grp *ma.Group) *orbitGroup {
	m, n := grp.Order(), grp.N()
	mul, inv := grp.Table()
	g := &orbitGroup{
		grp: grp, m: m, n: n, mul: mul, inv: inv,
		least: make([]int, n), toLeast: make([]uint64, n),
		pinv: make([]uint8, m*n), maskTab: make([]uint16, m*2*256),
		full: ^uint64(0) >> uint(64-m),
	}
	for k := 0; k < m; k++ {
		for p, q := range grp.Elem(k) {
			g.pinv[k*n+q] = uint8(p)
			for v := 0; v < 256; v++ {
				if v&(1<<uint(p%8)) != 0 {
					g.maskTab[(2*k+p/8)*256+v] |= 1 << uint(q)
				}
			}
		}
	}
	for p := 0; p < n; p++ {
		least := p
		for k := 0; k < m; k++ {
			least = min(least, grp.Elem(k)[p])
		}
		g.least[p] = least
		for k := 0; k < m; k++ {
			if grp.Elem(k)[p] == least {
				g.toLeast[p] |= 1 << uint(k)
			}
		}
	}
	return g
}

// maxValueDomain bounds the value domain of a group's value part.
const maxValueDomain = 64

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

// AdoptGroup makes an empty plain interner orbit-canonical under grp, a
// group resolved over its value domain (ma.Group.OnDomain), or checks that
// the interner already canonicalizes by exactly that group — element
// order included, since element indices are part of every ID, so the
// check compares fingerprints. A nontrivial group may act on at most 16
// processes; the trivial group leaves the interner plain. It errors on a
// group past that bound, on a mismatch, and on a non-empty plain interner
// asked for a nontrivial group.
func (in *Interner) AdoptGroup(grp *ma.Group) error {
	switch {
	case in.grp != nil:
		if grp.Fingerprint() != in.grp.grp.Fingerprint() {
			return fmt.Errorf("ptg: interner is orbit-canonical under a different group, of order %d", in.grp.m)
		}
	case grp.Trivial():
	case grp.N() > maxOrbitProcs:
		return fmt.Errorf("ptg: group acts on %d processes, want at most %d", grp.N(), maxOrbitProcs)
	case in.Size() > 0:
		return fmt.Errorf("ptg: cannot make a plain interner holding %d cones orbit-canonical", in.Size())
	default:
		in.grp = orbitTables(grp)
		in.limit = int32((math.MaxInt32 + 1) / int64(in.grp.m))
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
	if uint(p) >= uint(g.n) {
		return -1
	}
	arg := g.toLeast[p]
	if d := g.grp.Domain(); d > 0 && x >= 0 && x < d {
		var has uint64
		least := x
		for rest := arg; rest != 0; rest &= rest - 1 {
			k := bits.TrailingZeros64(rest)
			switch y := g.grp.Value(k, x); {
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
// elements that map the node to it; ok is false when a child has no ID or
// p is not one of the group's processes.
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
	if uint(p) >= uint(g.n) {
		return buf, 0, false
	}
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
