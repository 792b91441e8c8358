package ma

import (
	"fmt"

	"topocon/internal/graph"
)

// Intersect is the set intersection of two message adversaries: a sequence
// is admissible iff it is admissible under both operands. It is the product
// automaton over the graph-set intersection of the operands' choices, with
// dead branches pruned so that every reachable state keeps a non-empty
// choice set (the Adversary contract).
//
// Intersection is the conjunction combinator the constructor zoo lacked:
// it imposes two independent obligation structures at once ("lossy link AND
// eventually a stable window"), which no single seed family and no union
// (disjunction) or exclusion (finitely many words) can express.
type Intersect struct {
	name    string
	n       int
	a, b    Adversary
	compact bool
	prune   *pruner
}

var _ Adversary = (*Intersect)(nil)

// productState pairs the operand states. Operand states are comparable by
// the Adversary contract, so the pair is itself a valid map key — product
// states reached along different walks but with equal operand states
// deduplicate structurally.
type productState struct {
	a, b State
}

// NewIntersect builds the intersection a ∩ b. The operands must agree on
// the node count, and the intersection must denote a non-empty language:
// the product start state must admit an infinite walk that discharges both
// operands' obligations. Violations — including jointly unsatisfiable
// liveness obligations — are construction errors.
func NewIntersect(name string, a, b Adversary) (*Intersect, error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("ma: intersect operands have node counts %d and %d", a.N(), b.N())
	}
	if name == "" {
		name = a.Name() + " ∩ " + b.Name()
	}
	i := &Intersect{
		name: name,
		n:    a.N(),
		a:    a,
		b:    b,
		// The intersection of two closed sequence sets is closed.
		compact: a.Compact() && b.Compact(),
	}
	i.prune = newPruner(i.rawChoices, i.rawStep)
	if err := i.prune.analyze(i.Start()); err != nil {
		return nil, err
	}
	if !i.prune.isLive(i.Start()) {
		return nil, fmt.Errorf("ma: intersection %q is empty (no common infinite sequence)", name)
	}
	ok, err := doneReachable(i)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("ma: intersection %q is empty (the operands' obligations are jointly unsatisfiable)", name)
	}
	return i, nil
}

// MustIntersect is NewIntersect for statically-known operands.
func MustIntersect(name string, a, b Adversary) *Intersect {
	i, err := NewIntersect(name, a, b)
	if err != nil {
		panic(err)
	}
	return i
}

// Operands returns the two intersected adversaries.
func (i *Intersect) Operands() (Adversary, Adversary) { return i.a, i.b }

// N implements Adversary.
func (i *Intersect) N() int { return i.n }

// Name implements Adversary.
func (i *Intersect) Name() string { return i.name }

// Compact implements Adversary: the intersection of closed sets is closed,
// so the product is compact when both operands are. (With a non-compact
// operand the intersection may still happen to be closed; reporting
// non-compact is the conservative direction, as for Union.)
func (i *Intersect) Compact() bool { return i.compact }

// Start implements Adversary.
func (i *Intersect) Start() State {
	return productState{a: i.a.Start(), b: i.b.Start()}
}

// rawChoices is the unpruned graph-set intersection, in a's choice order.
func (i *Intersect) rawChoices(s State) []graph.Graph {
	st := s.(productState)
	bKeys := make(map[string]bool, 4)
	for _, g := range i.b.Choices(st.b) {
		bKeys[g.Key()] = true
	}
	var out []graph.Graph
	for _, g := range i.a.Choices(st.a) {
		if bKeys[g.Key()] {
			out = append(out, g)
		}
	}
	return out
}

func (i *Intersect) rawStep(s State, g graph.Graph) State {
	st := s.(productState)
	return productState{a: i.a.Step(st.a, g), b: i.b.Step(st.b, g)}
}

// Choices implements Adversary: the graph-set intersection of the operands'
// choices, restricted to graphs whose successor product state still admits
// an infinite walk. Never empty on reachable states by construction; the
// pruner memoizes per product state, concurrency-safe like Union's cache.
func (i *Intersect) Choices(s State) []graph.Graph { return i.prune.pruned(s) }

// Step implements Adversary.
func (i *Intersect) Step(s State, g graph.Graph) State { return i.rawStep(s, g) }

// Done implements Adversary: both operands' obligations must be discharged.
// Each operand's Done is absorbing, so the conjunction is absorbing too.
func (i *Intersect) Done(s State) bool {
	st := s.(productState)
	return i.a.Done(st.a) && i.b.Done(st.b)
}
