package ma

import (
	"fmt"
	"sync"

	"topocon/internal/graph"
)

// maxPrunedStates bounds the reachable-state exploration of the restriction
// combinators (Intersect, Filter): their liveness analysis requires a
// finite reachable state space. Every adversary family in this package is
// finite-state; exceeding the bound is a construction error (typically an
// operand with an unbounded state encoding).
const maxPrunedStates = 1 << 20

// pruner removes dead branches from a restricted graph automaton.
//
// Restriction combinators intersect or filter the raw choice sets of their
// operands, which can strand states without any infinite continuation —
// violating the Adversary contract that Choices is non-empty on every
// reachable state. At construction, analyze explores the full raw-reachable
// state space iteratively (no recursion, bounded by maxPrunedStates) and
// classifies every state as live (some infinite walk exists under the raw
// transition relation) or dead; the combinators then offer only graphs
// leading to live states. Because the analysis covers every raw-reachable
// state — a superset of the pruned-reachable ones — runtime lookups never
// encounter an unknown state.
//
// Liveness over a finite automaton: a state is live iff some infinite walk
// leaves it, i.e. iff it is not in the least set closed under "all
// successors dead" starting from the choice-less states. analyze computes
// that fixpoint Kahn-style in O(edges).
//
// The exploration table doubles as the reachable-state dedup and as the
// pruned-choices memo. All methods are safe for concurrent use after
// analyze, as the Adversary contract requires of Choices.
type pruner struct {
	choices func(State) []graph.Graph
	step    func(State, graph.Graph) State

	live map[State]bool

	// prunedMemo caches pruned choice slices per state; guarded by mu (the
	// live table is read-only after analyze and needs no lock).
	mu         sync.RWMutex
	prunedMemo map[State][]graph.Graph
}

func newPruner(choices func(State) []graph.Graph, step func(State, graph.Graph) State) *pruner {
	return &pruner{
		choices:    choices,
		step:       step,
		live:       make(map[State]bool, 64),
		prunedMemo: make(map[State][]graph.Graph, 64),
	}
}

// analyze explores every state raw-reachable from start and computes the
// liveness classification. It must be called once, before any other
// method; it errors if the reachable state space exceeds maxPrunedStates.
func (p *pruner) analyze(start State) error {
	states := []State{start}
	index := map[State]int{start: 0}
	var succs [][]int
	for i := 0; i < len(states); i++ {
		if len(states) > maxPrunedStates {
			return fmt.Errorf("ma: restriction pruning exceeded %d reachable states; operand state space looks unbounded", maxPrunedStates)
		}
		s := states[i]
		choices := p.choices(s)
		row := make([]int, 0, len(choices))
		for _, g := range choices {
			next := p.step(s, g)
			j, ok := index[next]
			if !ok {
				j = len(states)
				index[next] = j
				states = append(states, next)
			}
			row = append(row, j)
		}
		succs = append(succs, row)
	}

	// Dead = least fixpoint of "no successors, or all successors dead".
	// Kahn-style: track the number of not-yet-dead successors; a state
	// whose count reaches zero dies and decrements its predecessors.
	preds := make([][]int, len(states))
	liveSucc := make([]int, len(states))
	for i, row := range succs {
		liveSucc[i] = len(row)
		for _, j := range row {
			preds[j] = append(preds[j], i)
		}
	}
	queue := make([]int, 0, 16)
	dead := make([]bool, len(states))
	for i, c := range liveSucc {
		if c == 0 {
			dead[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, pre := range preds[i] {
			liveSucc[pre]--
			if liveSucc[pre] == 0 && !dead[pre] {
				dead[pre] = true
				queue = append(queue, pre)
			}
		}
	}
	for i, s := range states {
		p.live[s] = !dead[i]
	}
	return nil
}

// isLive reports the liveness classification of a state computed by
// analyze. Every state a caller can legitimately hold was covered by the
// analysis, so an unknown state is a caller bug.
func (p *pruner) isLive(s State) bool {
	v, ok := p.live[s]
	if !ok {
		panic(fmt.Sprintf("ma: state %v was not covered by the pruning analysis", s))
	}
	return v
}

// pruned returns the raw choices of s restricted to graphs whose successor
// is live, preserving the raw order. Results are memoized per state.
func (p *pruner) pruned(s State) []graph.Graph {
	p.mu.RLock()
	cached, ok := p.prunedMemo[s]
	p.mu.RUnlock()
	if ok {
		return cached
	}
	raw := p.choices(s)
	out := make([]graph.Graph, 0, len(raw))
	for _, g := range raw {
		if p.isLive(p.step(s, g)) {
			out = append(out, g)
		}
	}
	p.mu.Lock()
	p.prunedMemo[s] = out
	p.mu.Unlock()
	return out
}

// doneReachable reports whether some state with discharged obligations is
// reachable from the adversary's start state through its (already pruned)
// transitions — i.e. whether the adversary denotes a non-empty language,
// given that every reachable state keeps a non-empty choice set. The
// search is bounded by maxPrunedStates; combinator constructors run it
// after their pruning analysis, whose coverage guarantees the bound is
// never the limiting factor there.
func doneReachable(a Adversary) (bool, error) {
	start := a.Start()
	seen := map[State]bool{start: true}
	// Depth-first: obligations typically discharge along one deep walk
	// (e.g. playing the same graph k times), which DFS finds after a
	// handful of steps where BFS would expand whole frontiers first.
	stack := []State{start}
	for len(stack) > 0 {
		if len(seen) > maxPrunedStates {
			return false, fmt.Errorf("ma: obligation-reachability search exceeded %d states for %q", maxPrunedStates, a.Name())
		}
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.Done(s) {
			return true, nil
		}
		for _, g := range a.Choices(s) {
			next := a.Step(s, g)
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false, nil
}
