package lasso

import (
	"fmt"

	"topocon/internal/combi"
	"topocon/internal/ma"
	"topocon/internal/uf"
)

// Analysis is the exact topological structure of a finite message
// adversary {w_1, ..., w_k}: its runs (words × input assignments), the
// connected components of the space PS in the minimum topology, and the
// verdict of Corollary 5.6.
//
// Finite sets of sequences are compact, and in them two runs lie in one
// component iff they are linked by a chain of distance-0 pairs (isolated
// points are their own components), so the decomposition is exact — no
// horizon, no approximation.
type Analysis struct {
	// Runs are all runs of the space, ordered words-major.
	Runs []Run
	// Components lists run indices per component, each ascending.
	Components [][]int
	// CompOf maps run index to component index.
	CompOf []int
	// Mixed lists components containing differently-valent runs.
	Mixed []int
	// Solvable is the Corollary 5.6 verdict: true iff no mixed component.
	Solvable bool
	// BridgePairs are the non-trivial indistinguishability edges: pairs
	// (i,j) of runs with different input assignments at distance 0. The
	// chains that make a component mixed are composed of such bridges;
	// they are the finite-set shadow of the fair/unfair limit pairs of
	// Definition 5.16.
	BridgePairs [][2]int
}

// Analyze builds the exact analysis of the finite adversary given by the
// words over the input domain {0..inputDomain-1}.
func Analyze(words []ma.GraphWord, inputDomain int) (*Analysis, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("lasso: no words to analyze")
	}
	n := words[0].N()
	for _, w := range words {
		if w.N() != n {
			return nil, fmt.Errorf("lasso: mixed node counts")
		}
	}
	if inputDomain < 1 {
		return nil, fmt.Errorf("lasso: input domain %d < 1", inputDomain)
	}
	a := &Analysis{}
	combi.Words(inputDomain, n, func(inputs []int) bool {
		for _, w := range words {
			a.Runs = append(a.Runs, MustRun(inputs, w))
		}
		return true
	})
	u := uf.New(len(a.Runs))
	for i := range a.Runs {
		for j := i + 1; j < len(a.Runs); j++ {
			if !DistanceZero(a.Runs[i], a.Runs[j]) {
				continue
			}
			u.Union(i, j)
			if !sameInputs(a.Runs[i].Inputs, a.Runs[j].Inputs) {
				a.BridgePairs = append(a.BridgePairs, [2]int{i, j})
			}
		}
	}
	a.Components = u.Groups()
	a.CompOf = make([]int, len(a.Runs))
	for ci, members := range a.Components {
		for _, i := range members {
			a.CompOf[i] = ci
		}
	}
	for ci, members := range a.Components {
		seen := -1
		mixed := false
		for _, i := range members {
			if v, ok := a.Runs[i].Valence(); ok {
				if seen >= 0 && v != seen {
					mixed = true
				}
				seen = v
			}
		}
		if mixed {
			a.Mixed = append(a.Mixed, ci)
		}
	}
	a.Solvable = len(a.Mixed) == 0
	return a, nil
}

func sameInputs(x, y []int) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
