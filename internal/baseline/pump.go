package baseline

import (
	"fmt"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// PumpCertificate is the second, self-similar form of bivalence proof: it
// captures impossibility arguments whose indistinguishability chains grow
// with the horizon (Santoro-Widmayer's lossy-link proof being the
// archetype), which no bounded-length chain can witness.
//
// The schema consists of two sustained agreement sets and two junction
// gadgets:
//
//   - an A-edge is an adjacent run pair with agreement set A whose both
//     endpoints play graph a forever: upd(a,a,A) = A keeps it alive;
//   - a B-edge similarly lives on graph b: upd(b,b,B) = B;
//   - a junction element, caught between an A-edge (demanding a) and a
//     B-edge (demanding b), splits into three copies playing a, c1, b. The
//     pre-existing agreement between copies is the full set, so the two
//     inserted edges get values upd(a,c1,full) = B and upd(c1,b,full) = A —
//     the alternation regenerates itself one level deeper. The symmetric
//     B|A junction uses c2.
//
// By induction every horizon admits a chain alternating A- and B-edges
// between the anchored valent runs: a mixed component at every resolution,
// hence (compact adversary, König) consensus is impossible.
type PumpCertificate struct {
	// A and B are the two sustained agreement sets.
	A, B uint64
	// GraphA sustains A-edges; GraphB sustains B-edges; Bridge1 resolves
	// A|B junctions and Bridge2 resolves B|A junctions.
	GraphA, GraphB, Bridge1, Bridge2 graph.Graph
	// AnchorInputs is the chain of input assignments whose consecutive
	// equal-coordinate sets alternate within {A, B} and whose endpoints
	// are differently-valent.
	AnchorInputs [][]int
	// AnchorWord is the agreement-set word of the anchor chain.
	AnchorWord []uint64
}

// String renders the certificate.
func (c *PumpCertificate) String() string {
	return fmt.Sprintf("alternating pump: A=%s via %v, B=%s via %v, bridges %v/%v, anchor of %d inputs",
		graph.FormatNodeSet(c.A), c.GraphA,
		graph.FormatNodeSet(c.B), c.GraphB,
		c.Bridge1, c.Bridge2, len(c.AnchorInputs))
}

// FindPumpCertificate searches the oblivious adversary for an
// alternating-pump impossibility schema over the given input domain.
func FindPumpCertificate(adv *ma.Oblivious, inputDomain int) (*PumpCertificate, bool) {
	n := adv.N()
	if n > 8 {
		return nil, false
	}
	full := graph.AllNodes(n)
	graphs := adv.Graphs()
	for a := uint64(1); a <= full; a++ {
		for b := uint64(1); b <= full; b++ {
			if a == b {
				continue
			}
			for _, ga := range graphs {
				if updateSet(ga, ga, a) != a {
					continue
				}
				for _, gb := range graphs {
					if updateSet(gb, gb, b) != b {
						continue
					}
					for _, c1 := range graphs {
						if updateSet(ga, c1, full) != b || updateSet(c1, gb, full) != a {
							continue
						}
						for _, c2 := range graphs {
							if updateSet(gb, c2, full) != a || updateSet(c2, ga, full) != b {
								continue
							}
							inputs, word, ok := findPumpAnchor(n, inputDomain, a, b)
							if !ok {
								continue
							}
							return &PumpCertificate{
								A: a, B: b,
								GraphA: ga, GraphB: gb,
								Bridge1: c1, Bridge2: c2,
								AnchorInputs: inputs,
								AnchorWord:   word,
							}, true
						}
					}
				}
			}
		}
	}
	return nil, false
}

// findPumpAnchor looks for a chain of input assignments whose consecutive
// equal-coordinate sets all equal A or B, connecting two differently-valent
// assignments. Whether one exists is reachability in the graph whose edges
// join two assignments with equal-coordinate set A or B, so a depth-first
// search that never unmarks a vector suffices: the relation is symmetric,
// so a vector the search left without success reaches no target by any
// other path either, and the first chain found is the one an exhaustive
// simple-path search in the same order would find. The chain is the
// search's stack.
func findPumpAnchor(n, inputDomain int, a, b uint64) ([][]int, []uint64, bool) {
	vectors := allVectors(n, inputDomain)
	visited := make([]bool, len(vectors))
	// frame is one vector on the stack and the index of the next vector
	// to try from it.
	type frame struct{ at, next int }
	var stack []frame
	for startIdx, start := range vectors {
		v0, valent := valentValue(start)
		if !valent || visited[startIdx] {
			// A visited valent start shares its class with an earlier
			// start that reached no differently-valent vector: neither
			// does it.
			continue
		}
		visited[startIdx] = true
		stack = append(stack[:0], frame{at: startIdx})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			cur := vectors[top.at]
			if v, valent := valentValue(cur); valent && v != v0 {
				inputs := make([][]int, len(stack))
				word := make([]uint64, len(stack)-1)
				for i, f := range stack {
					inputs[i] = vectors[f.at]
					if i > 0 {
						word[i-1] = equalCoords(inputs[i-1], inputs[i])
					}
				}
				return inputs, word, true
			}
			next := -1
			for ; top.next < len(vectors) && next < 0; top.next++ {
				if eq := equalCoords(cur, vectors[top.next]); !visited[top.next] && (eq == a || eq == b) {
					next = top.next
				}
			}
			if next < 0 {
				stack = stack[:len(stack)-1]
				continue
			}
			visited[next] = true
			stack = append(stack, frame{at: next})
		}
	}
	return nil, nil, false
}
