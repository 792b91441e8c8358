package ptg

import (
	"bytes"
	"errors"
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
	if id := in.Node(0, []int{0, 1}, []ViewID{last, -1}); id != -1 {
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
	qs := []int{0, 1, 2, 3}
	children := []ViewID{in.Leaf(0, 0), in.Leaf(1, 1), in.Leaf(2, 0), in.Leaf(3, 1)}
	node := in.Node(0, qs, children)
	leaf := in.Leaf(2, 1)
	if avg := testing.AllocsPerRun(200, func() {
		if in.Leaf(2, 1) != leaf || in.Node(0, qs, children) != node {
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
		if got.stabs.get(c) != in.stabs.get(c) {
			t.Fatalf("cone %d: imported stabilizer %b, original %b", c, got.stabs.get(c), in.stabs.get(c))
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
