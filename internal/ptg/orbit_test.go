package ptg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/ma"
)

// groupPerms lists a group's elements in the image-indexed form the
// orbit-canonical interner takes.
func groupPerms(g *ma.Group) [][]int {
	perms := make([][]int, g.Order())
	for k := range perms {
		perms[k] = g.Elem(k)
	}
	return perms
}

// groupInterner returns an empty interner that adopted the group perms.
func groupInterner(perms [][]int) (*Interner, error) {
	in := NewInterner()
	if err := in.AdoptGroup(perms); err != nil {
		return nil, err
	}
	return in, nil
}

// randomRun draws a run of the adversary: random binary inputs and rounds
// graphs from its set.
func randomRun(rng *rand.Rand, adv *ma.Oblivious, rounds int) Run {
	inputs := make([]int, adv.N())
	for p := range inputs {
		inputs[p] = rng.Intn(2)
	}
	r := NewRun(inputs)
	gs := adv.Graphs()
	for t := 0; t < rounds; t++ {
		r = r.Extend(gs[rng.Intn(len(gs))])
	}
	return r
}

// TestOrbitInternerProperties is the orbit-canonical ID contract on random
// runs of lossy-star-4 (its S₃) and of generated symmetric adversaries with
// n ≤ 4: relabeling an ID by element k gives the ID of the relabeled run's
// view, two IDs are equal exactly when a plain interner gives the two cones
// equal IDs, and the interner stores at most as many cones as the plain one.
func TestOrbitInternerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	advs := []*ma.Oblivious{advgen.LossyStar4()}
	for len(advs) < 13 {
		advs = append(advs, advgen.SymmetricOblivious(rng, 2+len(advs)%3))
	}
	for ai, adv := range advs {
		grp := ma.Automorphisms(adv)
		if grp.Trivial() {
			t.Fatalf("adversary %d (%v): trivial automorphism group", ai, adv.Graphs())
		}
		gi, err := groupInterner(groupPerms(grp))
		if err != nil {
			t.Fatal(err)
		}
		plain := NewInterner()
		toPlain := map[ViewID]ViewID{}
		toOrbit := map[ViewID]ViewID{}
		pair := func(g, p ViewID) {
			if q, ok := toPlain[g]; ok && q != p {
				t.Fatalf("adversary %d: orbit ID %d names plain cones %d and %d", ai, g, q, p)
			}
			if q, ok := toOrbit[p]; ok && q != g {
				t.Fatalf("adversary %d: plain cone %d has orbit IDs %d and %d", ai, p, q, g)
			}
			toPlain[g] = p
			toOrbit[p] = g
		}
		for run := 0; run < 40; run++ {
			r := randomRun(rng, adv, rng.Intn(6))
			v := ComputeViews(gi, r)
			for k := 0; k < grp.Order(); k++ {
				perm := grp.Elem(k)
				rk := r.Relabel(perm)
				vk := ComputeViews(gi, rk)
				pk := ComputeViews(plain, rk)
				for tt := 0; tt <= r.Rounds(); tt++ {
					for p := 0; p < adv.N(); p++ {
						if got, want := gi.Relabel(v.ID(tt, p), k), vk.ID(tt, perm[p]); got != want {
							t.Fatalf("adversary %d run %v: Relabel(id(t=%d,p=%d), %d) = %d, relabeled run's view has %d",
								ai, r, tt, p, k, got, want)
						}
						pair(vk.ID(tt, p), pk.ID(tt, p))
					}
				}
			}
		}
		if gi.IDBound() != gi.Size()*grp.Order() || gi.Size() > plain.Size() {
			t.Fatalf("adversary %d: %d stored cones (ID bound %d) against %d plain", ai, gi.Size(), gi.IDBound(), plain.Size())
		}
	}
}

// TestOrbitInternerStoresOnePerOrbit: a leaf and all its relabelings share
// one stored cone but keep distinct IDs, and a cone fixed by the whole
// group keeps its ID under every relabeling.
func TestOrbitInternerStoresOnePerOrbit(t *testing.T) {
	grp := ma.Automorphisms(advgen.LossyStar4())
	if grp.Order() != 6 {
		t.Fatalf("lossy-star-4 group order %d, want 6", grp.Order())
	}
	in, err := groupInterner(groupPerms(grp))
	if err != nil {
		t.Fatal(err)
	}
	leaves := map[ViewID]bool{}
	for p := 1; p < 4; p++ {
		leaves[in.Leaf(p, 1)] = true
	}
	center := in.Leaf(0, 1)
	if in.Size() != 2 || len(leaves) != 3 || leaves[center] {
		t.Fatalf("%d stored cones, %d distinct leaf IDs: want 2 and 3", in.Size(), len(leaves))
	}
	for k := 0; k < grp.Order(); k++ {
		if in.Relabel(center, k) != center {
			t.Fatalf("Relabel(center, %d) moved the center leaf", k)
		}
	}
}

// TestOrbitInternerIDCap: an ID that would overflow its range fails
// (Leaf/Node return -1 and Err reports ErrIDSpace) and never wraps.
func TestOrbitInternerIDCap(t *testing.T) {
	grp := ma.Automorphisms(advgen.LossyStar4())
	in, err := groupInterner(groupPerms(grp))
	if err != nil {
		t.Fatal(err)
	}
	in.limit = 5
	var last ViewID
	for x := 0; x < 10; x++ {
		id := in.Leaf(0, x)
		if x < 5 {
			if id < 0 || id >= ViewID(in.IDBound()) {
				t.Fatalf("leaf %d: id %d outside [0,%d)", x, id, in.IDBound())
			}
			last = id
			continue
		}
		if id != -1 {
			t.Fatalf("leaf %d past the cap: id %d, want -1", x, id)
		}
	}
	if in.Size() != 5 || last != ViewID(4*grp.Order()) {
		t.Fatalf("size %d, last id %d", in.Size(), last)
	}
	if err := in.Err(); !errors.Is(err, ErrIDSpace) {
		t.Fatalf("Err() = %v, want ErrIDSpace", err)
	}
	if id := in.Node(0, 0b11, []ViewID{last, -1}); id != -1 {
		t.Fatalf("node over an overflowed child: id %d, want -1", id)
	}
	if in.Leaf(0, 4) != last {
		t.Fatal("a stored cone stopped resolving after the overflow")
	}
	plain := NewInterner()
	plain.limit = 2
	plain.Leaf(0, 0)
	plain.Leaf(0, 1)
	if plain.Leaf(0, 2) != -1 || !errors.Is(plain.Err(), ErrIDSpace) || plain.Size() != 2 {
		t.Fatal("plain interner passed its cap")
	}
}

// TestOrbitInternerRepeatInternAllocationFree extends the allocation pin
// to the orbit-canonical path: re-interning a known cone allocates nothing.
func TestOrbitInternerRepeatInternAllocationFree(t *testing.T) {
	in, err := groupInterner(groupPerms(ma.Automorphisms(advgen.LossyStar4())))
	if err != nil {
		t.Fatal(err)
	}
	row := []ViewID{in.Leaf(0, 0), in.Leaf(1, 1), in.Leaf(2, 0), in.Leaf(3, 1)}
	node := in.Node(0, 0b1111, row)
	leaf := in.Leaf(2, 1)
	if avg := testing.AllocsPerRun(200, func() {
		if in.Leaf(2, 1) != leaf || in.Node(0, 0b1111, row) != node {
			t.Fatal("intern identity broken")
		}
	}); avg != 0 {
		t.Errorf("re-interning allocated %.2f times per call, want 0", avg)
	}
}

// TestAdoptGroup pins when an interner may take a group: an empty plain
// one may, a populated plain one may not, and an orbit-canonical one only
// accepts its own group, in its own element order.
func TestAdoptGroup(t *testing.T) {
	perms := groupPerms(ma.Automorphisms(advgen.LossyStar4()))
	in := NewInterner()
	if err := in.AdoptGroup(perms); err != nil || in.GroupOrder() != 6 {
		t.Fatalf("empty plain interner: %v (order %d)", err, in.GroupOrder())
	}
	if err := in.AdoptGroup(perms); err != nil {
		t.Fatalf("re-adopting the same group: %v", err)
	}
	if err := in.AdoptGroup(perms[:1]); err == nil {
		t.Fatal("orbit-canonical interner accepted the trivial group")
	}
	swapped := append([][]int{perms[0], perms[2], perms[1]}, perms[3:]...)
	if err := in.AdoptGroup(swapped); err == nil {
		t.Fatal("accepted a reordered group")
	}
	used := NewInterner()
	used.Leaf(0, 0)
	if err := used.AdoptGroup(perms); err == nil {
		t.Fatal("populated plain interner adopted a group")
	}
	if err := used.AdoptGroup(perms[:1]); err != nil {
		t.Fatalf("plain interner rejected the trivial group: %v", err)
	}
	for name, bad := range map[string][][]int{
		"not closed":   {{0, 1, 2}, {1, 2, 0}},
		"no identity":  {{1, 0}, {0, 1}},
		"duplicate":    {{0, 1}, {1, 0}, {1, 0}},
		"not a perm":   {{0, 1}, {1, 1}},
		"mixed arity":  {{0, 1}, {1, 0, 2}},
		"empty":        {},
		"out of range": {{0, 1}, {2, 0}},
	} {
		if _, err := groupInterner(bad); err == nil {
			t.Errorf("%s: AdoptGroup accepted %v", name, bad)
		}
	}
}

// orbitSample builds an orbit-canonical interner over lossy-star-4's S₃
// holding the views of a few runs, and returns the runs.
func orbitSample(tb testing.TB) (*Interner, []Run) {
	tb.Helper()
	adv := advgen.LossyStar4()
	in, err := groupInterner(groupPerms(ma.Automorphisms(adv)))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var runs []Run
	for i := 0; i < 6; i++ {
		r := randomRun(rng, adv, 3)
		ComputeViews(in, r)
		runs = append(runs, r)
	}
	return in, runs
}

// TestOrbitExportImportRoundTrip: an orbit-canonical export re-imports to
// the identical ID assignment and stabilizers and re-exports
// byte-identically; corrupt or non-canonical blobs are rejected.
func TestOrbitExportImportRoundTrip(t *testing.T) {
	in, runs := orbitSample(t)
	blob := mustExport(t, in)
	got, err := ImportInterner(blob)
	if err != nil {
		t.Fatalf("ImportInterner: %v", err)
	}
	if got.Size() != in.Size() || got.GroupOrder() != in.GroupOrder() || !bytes.Equal(mustExport(t, got), blob) {
		t.Fatalf("round trip: size %d/%d, order %d/%d", got.Size(), in.Size(), got.GroupOrder(), in.GroupOrder())
	}
	for c := int32(0); c < int32(got.Size()); c++ {
		if got.stabs[c] != in.stabs[c] {
			t.Fatalf("cone %d: imported stabilizer %b, original %b", c, got.stabs[c], in.stabs[c])
		}
	}
	for _, r := range runs {
		a, b := ComputeViews(in, r), ComputeViews(got, r)
		for tt := 0; tt <= r.Rounds(); tt++ {
			for p := 0; p < 4; p++ {
				if a.ID(tt, p) != b.ID(tt, p) {
					t.Fatalf("run %v (t=%d,p=%d): imported id %d, original %d", r, tt, p, b.ID(tt, p), a.ID(tt, p))
				}
			}
		}
	}
	if got.Size() != in.Size() {
		t.Fatalf("re-interning known views grew the import to %d cones (want %d)", got.Size(), in.Size())
	}
	// Renaming a leaf key's owner from process 1 (the least of the leaf
	// orbit) to process 2 makes the key non-canonical.
	bad := append([]byte(nil), blob...)
	i := bytes.Index(bad, []byte{'L', 1})
	if i < 0 {
		t.Fatal("no leaf key of process 1 in the sample")
	}
	bad[i+1] = 2
	if _, err := ImportInterner(bad); err == nil {
		t.Fatal("imported a non-canonical leaf key")
	}
	for name, data := range map[string][]byte{
		"truncated": blob[:len(blob)-3],
		"trailing":  append(append([]byte(nil), blob...), 0),
		"header":    blob[:3],
	} {
		if _, err := ImportInterner(data); err == nil {
			t.Errorf("%s: import succeeded", name)
		}
	}
}

// refOrbitNodeKey is the enumerate-and-sort canonicalization that
// orbitNodeKey's position-by-position pruning replaced, kept as its
// reference: it builds every candidate relabeling's (σ_k(q), child ID)
// pairs, insertion-sorts them, keeps the least sequence and returns its
// key and the elements reaching it. Coset minima are full scans.
func refOrbitNodeKey(in *Interner, p int, mask uint64, row []ViewID) (key []byte, arg uint64, ok bool) {
	g := in.grp
	m := int32(g.m)
	var (
		qs  [maxOrbitProcs]int
		cc  [maxOrbitProcs]int32
		cl  [maxOrbitProcs]uint8
		cs  [maxOrbitProcs]uint64
		deg int
	)
	for rest := mask; rest != 0; rest &= rest - 1 {
		q := bits.TrailingZeros64(rest)
		id := row[q]
		if id < 0 {
			return nil, 0, false
		}
		c := int32(id) / m
		qs[deg], cc[deg], cl[deg] = q, c, uint8(int32(id)-c*m)
		cs[deg] = in.stabs[c]
		deg++
	}
	// A candidate entry packs (σ_k(q), child ID) as q<<32 | id, so integer
	// order is the pair order; entries are insertion-sorted by σ_k(q).
	var best, cand [maxOrbitProcs]uint64
	star := -1
	for rest := g.toLeast[p]; rest != 0; rest &= rest - 1 {
		k := bits.TrailingZeros64(rest)
		perm := g.perms[k]
		for i, q := range qs[:deg] {
			e0 := g.mul[k*g.m+int(cl[i])]
			e := e0
			for h := cs[i]; h != 0; h &= h - 1 {
				if x := g.mul[int(e0)*g.m+bits.TrailingZeros64(h)]; x < e {
					e = x
				}
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
	key = append(key, 'N')
	key = binary.AppendUvarint(key, uint64(g.least[p]))
	for _, e := range best[:deg] {
		key = binary.AppendUvarint(key, e>>32)
		key = binary.AppendUvarint(key, e&math.MaxUint32)
	}
	return key, arg, true
}

// checkOrbitNode compares orbitNodeKey with the reference on one request
// — key bytes and the elements reaching the key — and then Node's ID and
// the stored stabilizer with the reference key's.
func checkOrbitNode(in *Interner, p int, mask uint64, row []ViewID) error {
	wantKey, wantArg, wantOK := refOrbitNodeKey(in, p, mask, row)
	key, arg, ok := in.orbitNodeKey(nil, p, mask, row)
	if ok != wantOK || !bytes.Equal(key, wantKey) || arg != wantArg {
		return fmt.Errorf("node (p=%d, mask=%b, row=%v): key %x, arg %b, ok %v; reference %x, %b, %v",
			p, mask, row, key, arg, ok, wantKey, wantArg, wantOK)
	}
	if !ok {
		return nil
	}
	g := in.grp
	id := in.Node(p, mask, row)
	stab, l := g.orbitLabel(wantArg, bits.TrailingZeros64(wantArg))
	c := in.intern(wantKey, stab)
	if want := ViewID(c*int32(g.m) + int32(l)); id != want || in.OrbitStab(int(c)) != stab {
		return fmt.Errorf("node (p=%d, mask=%b, row=%v): id %d, stabilizer %b; reference %d, %b",
			p, mask, row, id, in.OrbitStab(int(c)), want, stab)
	}
	return nil
}

// nodeCase is an interner with, per process q, a pool of IDs of views of
// q to draw node rows from.
type nodeCase struct {
	name  string
	in    *Interner
	pools [][]ViewID
}

// newNodeCase fills an interner under perms (plain for a group of order
// 1) with the views of random runs of adv, when given, and with three
// layers of random nodes over every process's leaves, and pools them.
func newNodeCase(tb testing.TB, name string, perms [][]int, adv *ma.Oblivious, rng *rand.Rand) nodeCase {
	tb.Helper()
	in, err := groupInterner(perms)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	n := len(perms[0])
	pools := make([][]ViewID, n)
	if adv != nil {
		for run := 0; run < 12; run++ {
			r := randomRun(rng, adv, rng.Intn(5))
			v := ComputeViews(in, r)
			for tt := 0; tt <= r.Rounds(); tt++ {
				for q := 0; q < n; q++ {
					pools[q] = append(pools[q], v.ID(tt, q))
				}
			}
		}
	}
	for q := 0; q < n; q++ {
		pools[q] = append(pools[q], in.Leaf(q, 0), in.Leaf(q, 1))
	}
	for layer := 0; layer < 3; layer++ {
		var fresh [][2]int
		for i := 0; i < 8*n; i++ {
			p := rng.Intn(n)
			mask := uint64(rng.Intn(1<<n)) | 1<<p
			row := make([]ViewID, n)
			for q := range row {
				row[q] = pools[q][rng.Intn(len(pools[q]))]
			}
			fresh = append(fresh, [2]int{p, int(in.Node(p, mask, row))})
		}
		for _, f := range fresh {
			pools[f[0]] = append(pools[f[0]], ViewID(f[1]))
		}
	}
	return nodeCase{name: name, in: in, pools: pools}
}

// orbitNodeCases returns orbit-canonical node cases for lossy-star-4's
// S₃, the automorphism groups of generated symmetric adversaries with
// n ≤ 4, and the cyclic group of order 4 and S₄ on 4 processes.
func orbitNodeCases(tb testing.TB) []nodeCase {
	rng := rand.New(rand.NewSource(29))
	star := advgen.LossyStar4()
	cases := []nodeCase{newNodeCase(tb, "lossy-star-4", groupPerms(ma.Automorphisms(star)), star, rng)}
	for i := 0; i < 6; i++ {
		adv := advgen.SymmetricOblivious(rng, 2+i%3)
		cases = append(cases, newNodeCase(tb, fmt.Sprintf("symmetric-%d", i), groupPerms(ma.Automorphisms(adv)), adv, rng))
	}
	cyclic := [][]int{{0, 1, 2, 3}, {1, 2, 3, 0}, {2, 3, 0, 1}, {3, 0, 1, 2}}
	cases = append(cases, newNodeCase(tb, "cyclic-4", cyclic, nil, rng))
	var sym4 [][]int
	for _, perm := range permutations(4) {
		sym4 = append(sym4, perm)
	}
	cases = append(cases, newNodeCase(tb, "symmetric-group-4", sym4, nil, rng))
	return cases
}

// permutations lists the permutations of n points, the identity first.
func permutations(n int) [][]int {
	var out [][]int
	var gen func(p []int, used int)
	gen = func(p []int, used int) {
		if len(p) == n {
			out = append(out, append([]int(nil), p...))
			return
		}
		for q := 0; q < n; q++ {
			if used&(1<<q) == 0 {
				gen(append(p, q), used|1<<q)
			}
		}
	}
	gen(nil, 0)
	return out
}

// randomRow draws a node request of case c: an owner, an in-mask holding
// it (self-only in about one request in four) and each masked child from
// its process's pool.
func (c nodeCase) randomRow(rng *rand.Rand) (p int, mask uint64, row []ViewID) {
	n := len(c.pools)
	p = rng.Intn(n)
	mask = 1 << p
	if rng.Intn(4) > 0 {
		mask |= uint64(rng.Intn(1 << n))
	}
	row = make([]ViewID, n)
	for q := range row {
		row[q] = c.pools[q][rng.Intn(len(c.pools[q]))]
	}
	return p, mask, row
}

// TestOrbitNodeMatchesReference compares the pruned canonicalization with
// the enumerate-and-sort reference on random rows of every orbit node
// case: key bytes, the elements reaching the key, the returned ID and the
// stored stabilizer. The cases must draw rows whose children have
// nontrivial stabilizers, and rows where several candidates tie (neither
// occurs under a group no element of which fixes a process).
func TestOrbitNodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	stabbed, tied := 0, 0
	for _, c := range orbitNodeCases(t) {
		for i := 0; i < 2000; i++ {
			p, mask, row := c.randomRow(rng)
			if err := checkOrbitNode(c.in, p, mask, row); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for rest := mask; rest != 0; rest &= rest - 1 {
				if c.in.OrbitStab(int(row[bits.TrailingZeros64(rest)])/c.in.GroupOrder()) != 1 {
					stabbed++
					break
				}
			}
			if _, arg, _ := c.in.orbitNodeKey(nil, p, mask, row); bits.OnesCount64(arg) > 1 {
				tied++
			}
		}
	}
	if stabbed < 500 || tied < 500 {
		t.Fatalf("%d rows with a stabilized child, %d with tied candidates; want 500 of each", stabbed, tied)
	}
}

// FuzzOrbitNode compares the pruned canonicalization with the reference
// on fuzzed requests: a node case, an owner, an in-mask and one byte per
// masked child picking it from its process's pool.
func FuzzOrbitNode(f *testing.F) {
	cases := orbitNodeCases(f)
	f.Add(uint8(0), uint8(0), uint16(0b1111), []byte{0, 1, 2, 3})
	f.Add(uint8(0), uint8(2), uint16(0b0100), []byte{5})
	f.Add(uint8(8), uint8(1), uint16(0b1011), []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, ci, p uint8, mask uint16, picks []byte) {
		c := cases[int(ci)%len(cases)]
		n := len(c.pools)
		owner, in := int(p)%n, uint64(mask)&(1<<n-1)
		row := make([]ViewID, n)
		for q := range row {
			var b byte
			if in&(1<<q) != 0 && len(picks) > 0 {
				b, picks = picks[0], picks[1:]
			}
			row[q] = c.pools[q][int(b)%len(c.pools[q])]
		}
		if err := checkOrbitNode(c.in, owner, in, row); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	})
}
