package ptg

import (
	"math/rand"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/graph"
	"topocon/internal/ma"
)

// FuzzInternerHeard checks the interner's heard masks against the explicit
// causal cones, which share no code with the interner. The fuzz input
// seeds random runs: on a plain interner, runs of random graphs on
// n ∈ {2, 3, 4} processes; on the orbit-canonical interner of lossy-star-4
// under its S₃, runs of that adversary. For every view of every run,
// Heard(id) must be the set of processes whose leaf lies in ConeOf of
// that run, process and time; on the orbit-canonical interner,
// Heard(Relabel(id, k)) must be Heard(id) relabeled by σ_k for every
// element k; and an interner re-imported from its Export must give every
// ID the same mask.
func FuzzInternerHeard(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	star := advgen.LossyStar4()
	perms := groupPerms(ma.Automorphisms(star))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(shape)%3
		plain := NewInterner()
		for i := 0; i < 1+int(shape>>2)%4; i++ {
			checkHeard(t, plain, randomGraphRun(rng, n, rng.Intn(6)), nil)
		}
		orbit, err := groupInterner(perms)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1+int(shape>>4)%4; i++ {
			checkHeard(t, orbit, randomRun(rng, star, rng.Intn(6)), perms)
		}
		for _, in := range []*Interner{plain, orbit} {
			again, err := ImportInterner(mustExport(t, in))
			if err != nil {
				t.Fatal(err)
			}
			for id := ViewID(0); id < ViewID(in.IDBound()); id++ {
				if got, want := again.Heard(id), in.Heard(id); got != want {
					t.Fatalf("group order %d: imported view %d heard %#x, original %#x", in.GroupOrder(), id, got, want)
				}
			}
		}
	})
}

// randomGraphRun draws a run on n processes with binary inputs and rounds
// graphs whose edges are random.
func randomGraphRun(rng *rand.Rand, n, rounds int) Run {
	inputs := make([]int, n)
	for p := range inputs {
		inputs[p] = rng.Intn(2)
	}
	r := NewRun(inputs)
	for t := 0; t < rounds; t++ {
		masks := make([]uint64, n)
		for q := range masks {
			masks[q] = rng.Uint64() & graph.AllNodes(n)
		}
		g, err := graph.FromInMasks(n, masks)
		if err != nil {
			panic(err) // self-loops are added, any mask is valid
		}
		r = r.Extend(g)
	}
	return r
}

// checkHeard interns the views of run r and compares each view's heard
// mask with its explicit cone's leaves and, under the group perms (nil
// for a plain interner), with the masks of its relabeled twins.
func checkHeard(t *testing.T, in *Interner, r Run, perms [][]int) {
	t.Helper()
	v := ComputeViews(in, r)
	for tt := 0; tt <= r.Rounds(); tt++ {
		for p := 0; p < r.N(); p++ {
			id := v.ID(tt, p)
			cone := ConeOf(r, p, tt)
			var want uint64
			for q := 0; q < r.N(); q++ {
				if cone.ContainsInitial(q) {
					want |= 1 << uint(q)
				}
			}
			if got := in.Heard(id); got != want {
				t.Fatalf("run %v: view of process %d at time %d heard %#x, its cone's leaves %#x", r, p, tt, got, want)
			}
			for k, perm := range perms {
				if got, want := in.Heard(in.Relabel(id, k)), graph.PermuteMask(want, perm); got != want {
					t.Fatalf("run %v: twin %d of the view of process %d at time %d heard %#x, want %#x", r, k, p, tt, got, want)
				}
			}
		}
	}
}
