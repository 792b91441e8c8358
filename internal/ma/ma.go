// Package ma models message adversaries (Section 2 of the paper): sets of
// infinite communication-graph sequences.
//
// An adversary is described operationally as a deterministic automaton over
// round graphs. A state captures everything about the past that constrains
// the future; Choices lists the graphs playable next, and Done flags states
// in which all liveness obligations are discharged.
//
// Admissible infinite sequences are exactly the automaton walks that reach
// a Done state (Done is required to be absorbing). Two regimes arise:
//
//   - Compact (limit-closed) adversaries have Done ≡ true: admissibility is
//     a pure safety property, so the set of sequences is closed — this is
//     the Alpern-Schneider safety/closed-set correspondence the paper
//     builds on.
//   - Non-compact adversaries have reachable not-Done states from which
//     every finite prefix is extendable; the limits that stay not-Done
//     forever are precisely the excluded "fair/unfair" sequences of
//     Definition 5.16.
//
// The interface is how adversaries are defined and composed; an analysis
// session does not run it per run. Compile turns an adversary into a
// Table private to one session: dense int32 IDs for the reachable states,
// int32 letters for the distinct graphs they offer, and per state a row of
// its choices as letters with the successor state of each. Rows are
// compiled lazily, on the first run that reaches a state, so a session
// asks the interface once per reachable (state, choice). CountPrefixes,
// EnumeratePrefixes and Fingerprint keep walking the interface, so they
// stay independent cross-checks of the table.
package ma

import (
	"fmt"

	"topocon/internal/graph"
)

// State is an opaque adversary-automaton state. Implementations must use
// comparable values (states are used as map keys by enumeration and by the
// checkers).
type State any

// Adversary is a message adversary presented as a deterministic graph
// automaton.
//
// Choices, Step and Done must be safe for concurrent calls, so that
// analysis sessions on several goroutines may share one adversary value.
// Pure-value state machines satisfy this for free; implementations that
// memoize (e.g. Union) must synchronize their caches.
type Adversary interface {
	// N returns the number of processes.
	N() int
	// Name returns a short human-readable description.
	Name() string
	// Compact reports whether the adversary is limit-closed. For compact
	// adversaries Done must be true on every reachable state.
	Compact() bool
	// Start returns the initial state.
	Start() State
	// Choices returns the graphs playable from s, never empty for any
	// reachable state. The returned slice must not be mutated.
	Choices(s State) []graph.Graph
	// Step returns the successor state after playing g in state s. The
	// caller must pass a graph (equal to one) returned by Choices(s).
	Step(s State, g graph.Graph) State
	// Done reports whether all liveness obligations are discharged in s.
	// Done must be absorbing: once true it stays true along every walk.
	Done(s State) bool
}

// Prefix is an admissible finite prefix paired with its automaton state.
type Prefix struct {
	Graphs []graph.Graph
	State  State
	// Done records whether liveness obligations were discharged.
	Done bool
	// DoneAt is the earliest round (0 = initially) at which the
	// obligations were discharged, or -1 if they are still pending.
	DoneAt int
}

// EnumeratePrefixes calls yield with every admissible prefix of exactly the
// given number of rounds, in deterministic order, until yield returns
// false. The Graphs slice passed to yield is reused between calls; yield
// must copy it if it retains it.
func EnumeratePrefixes(a Adversary, rounds int, yield func(Prefix) bool) {
	graphs := make([]graph.Graph, 0, rounds)
	var walk func(s State, doneAt int) bool
	walk = func(s State, doneAt int) bool {
		if doneAt < 0 && a.Done(s) {
			doneAt = len(graphs)
		}
		if len(graphs) == rounds {
			return yield(Prefix{Graphs: graphs, State: s, Done: doneAt >= 0, DoneAt: doneAt})
		}
		for _, g := range a.Choices(s) {
			graphs = append(graphs, g)
			ok := walk(a.Step(s, g), doneAt)
			graphs = graphs[:len(graphs)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	walk(a.Start(), -1)
}

// CountPrefixes returns the number of admissible prefixes with the given
// number of rounds, memoized over automaton states.
func CountPrefixes(a Adversary, rounds int) int {
	type key struct {
		s     State
		depth int
	}
	memo := make(map[key]int)
	var count func(s State, depth int) int
	count = func(s State, depth int) int {
		if depth == 0 {
			return 1
		}
		k := key{s: s, depth: depth}
		if c, ok := memo[k]; ok {
			return c
		}
		total := 0
		for _, g := range a.Choices(s) {
			total += count(a.Step(s, g), depth-1)
		}
		memo[k] = total
		return total
	}
	return count(a.Start(), rounds)
}

// Admits reports whether the given graph word is playable from the start
// state, returning the final state. It returns false as soon as a graph is
// not among the adversary's choices.
func Admits(a Adversary, word []graph.Graph) (State, bool) {
	s := a.Start()
	for _, g := range word {
		allowed := false
		for _, c := range a.Choices(s) {
			if c.Equal(g) {
				allowed = true
				break
			}
		}
		if !allowed {
			return nil, false
		}
		s = a.Step(s, g)
	}
	return s, true
}

// dedupGraphs returns the graphs with duplicates (by canonical key)
// dropped, preserving first-occurrence order. Constructors use it to keep
// Choices duplicate-free, as Validate requires.
func dedupGraphs(graphs []graph.Graph) []graph.Graph {
	out := make([]graph.Graph, 0, len(graphs))
	seen := make(map[string]bool, len(graphs))
	for _, g := range graphs {
		if k := g.Key(); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// Validate performs structural sanity checks on an adversary up to the
// given exploration depth: choices must be non-empty and duplicate-free,
// graphs must have the right node count, Done must be absorbing, and
// compact adversaries must be Done everywhere. It returns an error
// describing the first violation.
func Validate(a Adversary, depth int) error {
	type item struct {
		s    State
		d    int
		done bool
	}
	seen := make(map[State]bool)
	queue := []item{{s: a.Start(), d: 0, done: a.Done(a.Start())}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if seen[it.s] {
			continue
		}
		seen[it.s] = true
		choices := a.Choices(it.s)
		if len(choices) == 0 {
			return fmt.Errorf("ma: adversary %q has no choices in state %v", a.Name(), it.s)
		}
		offered := make(map[string]bool, len(choices))
		for _, g := range choices {
			if g.N() != a.N() {
				return fmt.Errorf("ma: adversary %q offers %d-node graph but N=%d", a.Name(), g.N(), a.N())
			}
			k := g.Key()
			if offered[k] {
				return fmt.Errorf("ma: adversary %q offers duplicate graph %v in state %v", a.Name(), g, it.s)
			}
			offered[k] = true
		}
		if a.Compact() && !a.Done(it.s) {
			return fmt.Errorf("ma: compact adversary %q has non-Done state %v", a.Name(), it.s)
		}
		if it.d >= depth {
			continue
		}
		for _, g := range choices {
			next := a.Step(it.s, g)
			if it.done && !a.Done(next) {
				return fmt.Errorf("ma: adversary %q: Done is not absorbing at state %v --%v--> %v",
					a.Name(), it.s, g, next)
			}
			queue = append(queue, item{s: next, d: it.d + 1, done: a.Done(next)})
		}
	}
	return nil
}
