// Package sim is the synchronous lock-step execution substrate: it runs
// deterministic message-passing consensus processes round by round under a
// given communication-graph sequence (Section 2 of the paper), records
// decisions, and checks the consensus properties (T), (A), (V) of
// Definition 5.1.
//
// The package hosts the full-information process executing the universal
// decision rules extracted by package check, as well as classic baselines
// (FloodMin). Exhaustive and randomized drivers enumerate or sample
// admissible runs of a message adversary.
package sim

import (
	"fmt"

	"topocon/internal/ptg"
)

// Message is an opaque round payload. Senders must treat emitted messages
// as immutable; the runner delivers the same value to every receiver.
type Message any

// Process is a deterministic consensus process. The runner drives it
// through rounds: Message is collected from every process, messages are
// delivered according to the round's communication graph (self-loops
// included), then EndRound fires.
type Process interface {
	// Init resets the process with its identity (0-based), the process
	// count, and its input value. A process may ignore n if the algorithm
	// works without knowing it.
	Init(self, n, input int)
	// Message returns the payload to broadcast this round.
	Message() Message
	// Deliver hands a message received this round from process `from`.
	Deliver(from int, msg Message)
	// EndRound marks the end of the current round, after all deliveries.
	EndRound()
	// Decision returns the decided value, if any. Decisions must be
	// irrevocable; the runner verifies this.
	Decision() (int, bool)
}

// Trace records the outcome of executing a run.
type Trace struct {
	// Run is the executed input assignment and graph sequence.
	Run ptg.Run
	// DecisionRound[p] is the round at which p decided (0 = before any
	// communication), or -1.
	DecisionRound []int
	// Value[p] is p's decision value (valid when DecisionRound[p] ≥ 0).
	Value []int
}

// Decided reports whether every process has decided.
func (tr *Trace) Decided() bool {
	for _, r := range tr.DecisionRound {
		if r < 0 {
			return false
		}
	}
	return true
}

// LastDecisionRound returns the latest decision round, or -1 if nobody
// decided.
func (tr *Trace) LastDecisionRound() int {
	last := -1
	for _, r := range tr.DecisionRound {
		if r > last {
			last = r
		}
	}
	return last
}

// Execute runs freshly-initialized processes from the factory over the
// run's graph sequence and returns the trace. It panics if a process
// revokes or changes a decision (a broken algorithm is a programming
// error, and hiding it would invalidate every experiment built on top).
func Execute(factory func() Process, run ptg.Run) *Trace {
	n := run.N()
	procs := make([]Process, n)
	for p := 0; p < n; p++ {
		procs[p] = factory()
		procs[p].Init(p, n, run.Inputs[p])
	}
	tr := &Trace{
		Run:           run,
		DecisionRound: make([]int, n),
		Value:         make([]int, n),
	}
	for p := 0; p < n; p++ {
		tr.DecisionRound[p] = -1
	}
	record := func(round int) {
		for p := 0; p < n; p++ {
			v, ok := procs[p].Decision()
			switch {
			case !ok && tr.DecisionRound[p] >= 0:
				panic(fmt.Sprintf("sim: process %d revoked its decision in round %d", p+1, round))
			case ok && tr.DecisionRound[p] >= 0 && tr.Value[p] != v:
				panic(fmt.Sprintf("sim: process %d changed its decision in round %d", p+1, round))
			case ok && tr.DecisionRound[p] < 0:
				tr.DecisionRound[p] = round
				tr.Value[p] = v
			}
		}
	}
	record(0)
	msgs := make([]Message, n)
	for t := 1; t <= run.Rounds(); t++ {
		g := run.Graph(t)
		for p := 0; p < n; p++ {
			msgs[p] = procs[p].Message()
		}
		for q := 0; q < n; q++ {
			in := g.In(q)
			for p := 0; p < n; p++ {
				if in&(1<<uint(p)) != 0 {
					procs[q].Deliver(p, msgs[p])
				}
			}
		}
		for p := 0; p < n; p++ {
			procs[p].EndRound()
		}
		record(t)
	}
	return tr
}

// Violation describes a consensus property breach in a trace.
type Violation struct {
	// Property is "agreement", "validity" or "termination".
	Property string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string { return v.Property + ": " + v.Detail }

// CheckConsensus verifies agreement and validity on the trace, plus
// termination when required (finite prefixes can only require termination
// where the adversary's obligations have been discharged — the caller
// decides).
func CheckConsensus(tr *Trace, requireTermination bool) []Violation {
	var out []Violation
	agreed := -1
	for p := range tr.DecisionRound {
		if tr.DecisionRound[p] < 0 {
			if requireTermination {
				out = append(out, Violation{
					Property: "termination",
					Detail:   fmt.Sprintf("process %d undecided after %d rounds in %v", p+1, tr.Run.Rounds(), tr.Run),
				})
			}
			continue
		}
		if agreed < 0 {
			agreed = tr.Value[p]
		} else if tr.Value[p] != agreed {
			out = append(out, Violation{
				Property: "agreement",
				Detail:   fmt.Sprintf("values %v in %v", tr.Value, tr.Run),
			})
		}
	}
	if v, ok := tr.Run.IsValent(); ok && agreed >= 0 && agreed != v {
		out = append(out, Violation{
			Property: "validity",
			Detail:   fmt.Sprintf("decided %d on %d-valent run %v", agreed, v, tr.Run),
		})
	}
	return out
}
