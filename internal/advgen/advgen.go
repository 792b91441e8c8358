// Package advgen generates adversaries for property tests and benchmarks:
// the lossy-star-4 corpus adversary, random oblivious adversaries closed
// under a process permutation, or under all of them, so that their
// automorphism group is nontrivial, stateful wrappings of them, and random
// oblivious adversaries whose automorphism group is trivial.
package advgen

import (
	"math/rand"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// LossyStar4 is scenarios/lossy-star-4.json's adversary: the star around
// process 1 in both directions, and its three one-spoke-dropping variants.
// Its automorphism group is the S₃ permuting the leaves.
func LossyStar4() *ma.Oblivious {
	star := func(drop int) graph.Graph {
		masks := []uint64{0b1111, 0b0011, 0b0101, 0b1001}
		if drop > 0 {
			masks[drop] &^= 1
		}
		g, err := graph.FromInMasks(4, masks)
		if err != nil {
			panic(err) // the masks are valid by construction
		}
		return g
	}
	return ma.MustOblivious("lossy-star-4", star(0), star(1), star(2), star(3))
}

// SymmetricOblivious draws a random graph set on n processes and closes it
// under a random non-identity permutation σ, so its automorphism group is
// nontrivial.
func SymmetricOblivious(rng *rand.Rand, n int) *ma.Oblivious {
	sigma := rng.Perm(n)
	for isIdentity(sigma) {
		sigma = rng.Perm(n)
	}
	full := graph.AllNodes(n)
	var graphs []graph.Graph
	for i := 0; i < 1+rng.Intn(3); i++ {
		masks := make([]uint64, n)
		for q := range masks {
			masks[q] = rng.Uint64() & full
		}
		g, err := graph.FromInMasks(n, masks)
		if err != nil {
			panic(err) // self-loops are added, any mask is valid
		}
		for h := g; ; { // the orbit of g under ⟨σ⟩
			graphs = append(graphs, h)
			h = h.Relabel(sigma)
			if h.Key() == g.Key() {
				break
			}
		}
	}
	return ma.MustOblivious("", graphs...)
}

// AsymmetricOblivious draws a random graph set on n ≥ 2 processes that
// is not closed under any process permutation: its automorphism group is
// trivial, so a quotient of its prefix space relabels input values alone.
// Draws that happen to be symmetric are discarded.
func AsymmetricOblivious(rng *rand.Rand, n int) *ma.Oblivious {
	full := graph.AllNodes(n)
	for {
		graphs := make([]graph.Graph, 1+rng.Intn(3))
		for i := range graphs {
			masks := make([]uint64, n)
			for q := range masks {
				masks[q] = rng.Uint64() & full
			}
			g, err := graph.FromInMasks(n, masks)
			if err != nil {
				panic(err) // self-loops are added, any mask is valid
			}
			graphs[i] = g
		}
		if adv := ma.MustOblivious("", graphs...); ma.Automorphisms(adv).Trivial() {
			return adv
		}
	}
}

// WindowStableSymmetric draws a SymmetricOblivious set and wraps it in
// ma.WindowStable with a window of 2 or 3 rounds. The wrapper tracks the
// previous round's graph and its streak, so the automaton has more than one
// state, while relabeling a run by an automorphism of the set preserves its
// repetitions, so the automorphism group stays nontrivial.
func WindowStableSymmetric(rng *rand.Rand, n int) *ma.WindowStable {
	return ma.MustWindowStable(SymmetricOblivious(rng, n), 2+rng.Intn(2))
}

// FullySymmetricOblivious draws one random graph on n processes and
// closes it under every permutation of the processes, so its automorphism
// group is the whole symmetric group S_n. Each edge is kept with
// probability 1/4, so many in-neighbourhoods are the process itself.
func FullySymmetricOblivious(rng *rand.Rand, n int) *ma.Oblivious {
	masks := make([]uint64, n)
	for q := range masks {
		masks[q] = rng.Uint64() & rng.Uint64() & graph.AllNodes(n)
	}
	g, err := graph.FromInMasks(n, masks)
	if err != nil {
		panic(err) // self-loops are added, any mask is valid
	}
	var graphs []graph.Graph // relabelings repeat; MustOblivious drops them
	var permute func(perm []int, used int)
	permute = func(perm []int, used int) {
		if len(perm) == n {
			graphs = append(graphs, g.Relabel(perm))
			return
		}
		for q := 0; q < n; q++ {
			if used&(1<<q) == 0 {
				permute(append(perm, q), used|1<<q)
			}
		}
	}
	permute(make([]int, 0, n), 0)
	return ma.MustOblivious("", graphs...)
}

func isIdentity(perm []int) bool {
	for p, q := range perm {
		if p != q {
			return false
		}
	}
	return true
}
