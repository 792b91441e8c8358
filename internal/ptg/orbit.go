package ptg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"topocon/internal/graph"
)

// Orbit-canonical interning (DESIGN.md §13). When the runs under analysis
// are closed under a permutation group G of the processes, every cone has
// up to |G| relabeled twins: relabeling by σ maps each node (p, t) to
// (σ(p), t) and keeps leaf inputs. An interner given the group by
// AdoptGroup stores one cone per orbit:
//
//   - Leaf and Node compute the requested cone's |G| relabelings from the
//     children's IDs, pick the least one C (owner first, then the sorted
//     (process, child ID) pairs), and intern only C — its stored index c
//     is dense, so Size() counts orbits;
//   - C's stabilizer Stab(C) = {h : σ_h·C = C} is recorded as a bitmask;
//   - the returned ID is c·|G| + ℓ, where ℓ is the least element of the
//     coset {g : σ_g·C = requested cone} = ℓ·Stab(C).
//
// Equal IDs therefore still mean equal cones: ℓ is a function of the cone,
// not of the element that happened to reach it. Relabeling by element k is
// arithmetic — the twin σ_k·(σ_ℓ·C) = σ_{k∘ℓ}·C has ID c·|G| + the least
// element of (k∘ℓ)·Stab(C) — so no relabel memo is needed anywhere.
//
// On a plain interner (NewInterner, the trivial group) keys, IDs and
// per-call cost are exactly the non-group ones.

// maxGroupOrder bounds |G|: stabilizers are uint64 bitmasks.
const maxGroupOrder = 64

// maxOrbitProcs bounds the process count of an orbit-canonical interner,
// which keeps its per-call scratch in stack arrays of this size.
// ma.Automorphisms detects groups only up to n = 7.
const maxOrbitProcs = 16

// orbitGroup is the permutation group of an orbit-canonical interner, with
// its multiplication table.
type orbitGroup struct {
	m, n int
	// perms[k][p] is the image of process p under element k; perms[0] is
	// the identity.
	perms [][]int
	// inv[k] is the index of element k's inverse.
	inv []uint8
	// mul[a*m+b] is the index of σ_a∘σ_b (σ_b applied first).
	mul []uint8
	// least[p] is the least process of p's orbit, and toLeast[p] the mask
	// of the elements mapping p to it: only relabelings owned by least[p]
	// can be a cone's least relabeling.
	least   []int
	toLeast []uint64
}

// newOrbitGroup validates perms as a permutation group with the identity
// first and builds its tables. A group of order 1 yields nil (the plain
// interner), at any process count a graph supports; only a nontrivial
// group is bounded by maxOrbitProcs.
func newOrbitGroup(perms [][]int) (*orbitGroup, error) {
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
	index := make(map[string]int, m)
	key := func(perm []int) string {
		b := make([]byte, len(perm))
		for p, q := range perm {
			b[p] = byte(q)
		}
		return string(b)
	}
	for k, perm := range perms {
		if len(perm) != n {
			return nil, fmt.Errorf("ptg: group element %d has %d images, want %d", k, len(perm), n)
		}
		var seen uint64
		for p, q := range perm {
			if q < 0 || q >= n || seen&(1<<uint(q)) != 0 {
				return nil, fmt.Errorf("ptg: group element %d is not a permutation", k)
			}
			seen |= 1 << uint(q)
			if k == 0 && q != p {
				return nil, errors.New("ptg: group element 0 is not the identity")
			}
		}
		if _, dup := index[key(perm)]; dup {
			return nil, fmt.Errorf("ptg: group element %d repeats an earlier one", k)
		}
		index[key(perm)] = k
	}
	if m == 1 {
		return nil, nil
	}
	g := &orbitGroup{
		m: m, n: n, perms: perms,
		inv: make([]uint8, m), mul: make([]uint8, m*m),
		least: make([]int, n), toLeast: make([]uint64, n),
	}
	comp := make([]int, n)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			for p := 0; p < n; p++ {
				comp[p] = perms[a][perms[b][p]]
			}
			ab, ok := index[key(comp)]
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

// equal reports whether two groups list the same elements in the same
// order (element indices are part of the ID scheme).
func (g *orbitGroup) equal(perms [][]int) bool {
	if len(perms) != g.m {
		return false
	}
	for k := range perms {
		if len(perms[k]) != g.n {
			return false
		}
		for p, q := range perms[k] {
			if g.perms[k][p] != q {
				return false
			}
		}
	}
	return true
}

// cosetMin returns the least element of the coset e·H, where H is the
// subgroup with bitmask stab (which always holds the identity).
func (g *orbitGroup) cosetMin(e uint8, stab uint64) uint8 {
	best := e
	row := g.mul[int(e)*g.m : int(e+1)*g.m]
	for rest := stab &^ 1; rest != 0; rest &= rest - 1 {
		if x := row[bits.TrailingZeros64(rest)]; x < best {
			best = x
		}
	}
	return best
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

// stabChunkBits sizes the stabilizer table's chunks (4096 masks, 32 KiB).
const stabChunkBits = 12

type stabChunk [1 << stabChunkBits]uint64

// stabTable maps stored-cone indices to stabilizer masks. Chunks never
// move once allocated, and the chunk directory is swapped atomically, so
// readers take no lock: a cone's mask is written under its shard lock
// before the cone's index is handed to anyone.
type stabTable struct {
	mu  sync.Mutex
	dir atomic.Pointer[[]*stabChunk]
}

func (t *stabTable) get(c int32) uint64 {
	return (*t.dir.Load())[c>>stabChunkBits][c&(1<<stabChunkBits-1)]
}

func (t *stabTable) set(c int32, stab uint64) {
	ci := int(c >> stabChunkBits)
	d := t.dir.Load()
	if d == nil || ci >= len(*d) {
		d = t.grow(ci)
	}
	(*d)[ci][c&(1<<stabChunkBits-1)] = stab
}

// grow makes chunk ci addressable. Chunks are appended within spare
// directory capacity (readers of the old directory never index them) and
// the directory is reallocated only when that capacity runs out.
func (t *stabTable) grow(ci int) *[]*stabChunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dir []*stabChunk
	if d := t.dir.Load(); d != nil {
		dir = *d
	}
	if ci < len(dir) {
		return t.dir.Load()
	}
	if ci >= cap(dir) {
		grown := make([]*stabChunk, len(dir), 2*(ci+1))
		copy(grown, dir)
		dir = grown
	}
	for len(dir) <= ci {
		dir = append(dir, new(stabChunk))
	}
	t.dir.Store(&dir)
	return &dir
}

// AdoptGroup makes an empty plain interner orbit-canonical under the
// process permutation group perms, or checks that the interner already
// canonicalizes by exactly that group — element order included, since
// element indices are part of every ID. perms[k][p] is the image of
// process p under element k, perms[0] must be the identity, and the set
// must be closed under composition, with at most 64 elements on at most
// 16 processes; a group of order 1 leaves the interner plain. It errors on
// an invalid group, on a mismatch, and on a non-empty plain interner asked
// for a nontrivial group. Not safe for concurrent use with interning.
func (in *Interner) AdoptGroup(perms [][]int) error {
	g, err := newOrbitGroup(perms)
	if err != nil {
		return err
	}
	switch {
	case in.grp != nil && g == nil:
		return fmt.Errorf("ptg: interner is orbit-canonical under a group of order %d, not the trivial group", in.grp.m)
	case in.grp != nil:
		if !in.grp.equal(perms) {
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
	return in.stabs.get(int32(c))
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
	e := g.mul[k*g.m+int(int32(id)-c*m)]
	if st := in.stabs.get(c); st != 1 {
		e = g.cosetMin(e, st)
	}
	return ViewID(c*m + int32(e))
}

// orbitLeaf is Leaf on an orbit-canonical interner: the relabelings of the
// leaf (p, x) are the leaves (σ(p), x), so the least one is owned by the
// least process of p's orbit.
//
//topocon:allocfree
func (in *Interner) orbitLeaf(p, x int) ViewID {
	g := in.grp
	arg := g.toLeast[p]
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = 'L'
	n := 1
	n += binary.PutUvarint(buf[n:], uint64(g.least[p]))
	n += binary.PutVarint(buf[n:], int64(x))
	stab, l := g.orbitLabel(arg, bits.TrailingZeros64(arg))
	c := in.intern(buf[:n], stab)
	if c < 0 {
		return -1
	}
	return ViewID(c*int32(g.m) + int32(l))
}

// orbitNode is Node on an orbit-canonical interner. The relabeling of the
// node by element k is the node of σ_k(p) whose children are the children
// relabeled by k, re-slotted at σ_k(q); candidates are compared as the
// ascending (σ_k(q), child ID) sequence, and only elements that map p to
// its orbit's least process compete (the owner is compared first).
//
//topocon:allocfree
func (in *Interner) orbitNode(p int, qs []int, children []ViewID) ViewID {
	g := in.grp
	m := int32(g.m)
	deg := len(children)
	// Each child's stored cone, coset label and stabilizer, read once and
	// reused by every relabeling.
	var (
		cc [maxOrbitProcs]int32
		cl [maxOrbitProcs]uint8
		cs [maxOrbitProcs]uint64
	)
	for i, id := range children {
		if id < 0 {
			return -1 // a child that hit the ID cap
		}
		c := int32(id) / m
		cc[i], cl[i] = c, uint8(int32(id)-c*m)
		cs[i] = in.stabs.get(c)
	}
	// A candidate entry packs (σ_k(q), child ID) as q<<32 | id, so integer
	// order is the pair order; entries are insertion-sorted by σ_k(q).
	var best, cand [maxOrbitProcs]uint64
	var arg uint64
	star := -1
	for rest := g.toLeast[p]; rest != 0; rest &= rest - 1 {
		k := bits.TrailingZeros64(rest)
		perm := g.perms[k]
		row := g.mul[k*g.m : (k+1)*g.m]
		for i, q := range qs[:deg] {
			e := row[cl[i]]
			if cs[i] != 1 {
				e = g.cosetMin(e, cs[i])
			}
			x := uint64(perm[q])<<32 | uint64(cc[i]*m+int32(e))
			j := i
			for ; j > 0 && cand[j-1] > x; j-- {
				cand[j] = cand[j-1]
			}
			cand[j] = x
		}
		cmp := -1
		if star >= 0 {
			cmp = 0
			for i := 0; i < deg; i++ {
				if cand[i] != best[i] {
					if cand[i] < best[i] {
						cmp = -1
					} else {
						cmp = 1
					}
					break
				}
			}
		}
		switch cmp {
		case -1:
			best = cand
			arg, star = 1<<uint(k), k
		case 0:
			arg |= 1 << uint(k)
		}
	}
	var stack [nodeKeyStackSize]byte
	buf := stack[:0]
	buf = append(buf, 'N')
	buf = binary.AppendUvarint(buf, uint64(g.least[p]))
	for _, e := range best[:deg] {
		buf = binary.AppendUvarint(buf, e>>32)
		buf = binary.AppendUvarint(buf, e&math.MaxUint32)
	}
	stab, l := g.orbitLabel(arg, star)
	c := in.intern(buf, stab)
	if c < 0 {
		return -1
	}
	return ViewID(c*m + int32(l))
}
