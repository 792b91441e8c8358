// Package advgen generates adversaries for property tests and benchmarks:
// the lossy-star-4 corpus adversary and random oblivious adversaries closed
// under a process permutation, so that their automorphism group is
// nontrivial.
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

func isIdentity(perm []int) bool {
	for p, q := range perm {
		if p != q {
			return false
		}
	}
	return true
}
