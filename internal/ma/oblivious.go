package ma

import (
	"fmt"
	"strings"

	"topocon/internal/graph"
)

// Oblivious is an oblivious message adversary (Section 6.2, [8, 21]): in
// every round it may pick any graph from a fixed set, independent of the
// past. Oblivious adversaries are compact.
type Oblivious struct {
	n      int
	name   string
	graphs []graph.Graph
}

var _ Adversary = (*Oblivious)(nil)

// NewOblivious returns the oblivious adversary over the given non-empty
// graph set. All graphs must have the same node count; duplicates are
// dropped (Choices must be duplicate-free).
func NewOblivious(name string, graphs []graph.Graph) (*Oblivious, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("ma: oblivious adversary needs at least one graph")
	}
	n := graphs[0].N()
	for _, g := range graphs {
		if g.N() != n {
			return nil, fmt.Errorf("ma: mixed node counts %d and %d", n, g.N())
		}
	}
	cp := dedupGraphs(graphs)
	if name == "" {
		parts := make([]string, len(cp))
		for i, g := range cp {
			parts[i] = g.String()
		}
		name = "oblivious" + strings.Join(parts, "")
	}
	return &Oblivious{n: n, name: name, graphs: cp}, nil
}

// MustOblivious is NewOblivious for statically-known sets; it panics on
// error.
func MustOblivious(name string, graphs ...graph.Graph) *Oblivious {
	a, err := NewOblivious(name, graphs)
	if err != nil {
		panic(err)
	}
	return a
}

// Graphs returns the adversary's graph set (not to be mutated).
func (o *Oblivious) Graphs() []graph.Graph { return o.graphs }

// N implements Adversary.
func (o *Oblivious) N() int { return o.n }

// Name implements Adversary.
func (o *Oblivious) Name() string { return o.name }

// Compact implements Adversary; oblivious adversaries are limit-closed.
func (o *Oblivious) Compact() bool { return true }

// Start implements Adversary; oblivious adversaries are stateless.
func (o *Oblivious) Start() State { return struct{}{} }

// Choices implements Adversary.
func (o *Oblivious) Choices(State) []graph.Graph { return o.graphs }

// Step implements Adversary.
func (o *Oblivious) Step(s State, _ graph.Graph) State { return s }

// Done implements Adversary; there are no liveness obligations.
func (o *Oblivious) Done(State) bool { return true }

// LossyLink3 returns the classic n=2 lossy-link adversary over {←, ↔, →}
// from Santoro-Widmayer [21]; consensus is impossible under it.
func LossyLink3() *Oblivious {
	return MustOblivious("lossy-link{<-,<->,->}", graph.Left, graph.Both, graph.Right)
}

// LossyLink2 returns the reduced n=2 adversary over {←, →} from
// Coulouma-Godard-Peters [8]; consensus is solvable under it.
func LossyLink2() *Oblivious {
	return MustOblivious("lossy-link{<-,->}", graph.Left, graph.Right)
}

// Unrestricted returns the oblivious adversary that may play any graph on n
// nodes each round (2^(n(n-1)) graphs); use only for tiny n.
func Unrestricted(n int) *Oblivious {
	graphs := make([]graph.Graph, 0, graph.CountAll(n))
	graph.EnumerateAll(n, func(g graph.Graph) bool {
		graphs = append(graphs, g)
		return true
	})
	return MustOblivious(fmt.Sprintf("unrestricted(n=%d)", n), graphs...)
}

// ObliviousFromMask returns the oblivious adversary whose graph set is the
// subset of the EnumerateAll order selected by mask bits. It is the
// workhorse of exhaustive oblivious sweeps.
func ObliviousFromMask(n int, mask uint64) *Oblivious {
	graphs := make([]graph.Graph, 0, 4)
	for i := uint64(0); i < graph.CountAll(n); i++ {
		if mask&(1<<i) != 0 {
			graphs = append(graphs, graph.ByIndex(n, i))
		}
	}
	return MustOblivious(fmt.Sprintf("oblivious(n=%d,mask=%#x)", n, mask), graphs...)
}

// LossBounded returns the oblivious adversary of Santoro-Widmayer [21] and
// Schmid-Weiss-Keidar [22]: every round, at most f of the n(n-1) messages
// may be lost — i.e. the graph set contains every graph missing at most f
// off-diagonal edges. [21] proves consensus impossible for f ≥ n-1 (the
// adversary can mute one process forever); for f < n-1 no process can be
// silenced and consensus is solvable.
func LossBounded(n, f int) *Oblivious {
	graphs := make([]graph.Graph, 0, 64)
	complete := graph.Complete(n)
	offDiag := n * (n - 1)
	var build func(missing, from int, g graph.Graph)
	build = func(missing, from int, g graph.Graph) {
		graphs = append(graphs, g)
		if missing == f {
			return
		}
		for idx := from; idx < offDiag; idx++ {
			p := idx / (n - 1)
			q := idx % (n - 1)
			if q >= p {
				q++
			}
			build(missing+1, idx+1, g.RemoveEdge(p, q))
		}
	}
	build(0, 0, complete)
	return MustOblivious(fmt.Sprintf("loss-bounded(n=%d,f=%d)", n, f), graphs...)
}
