package sim

import (
	"topocon/internal/check"
	"topocon/internal/ptg"
)

// FullInfo is the full-information protocol: every round a process
// broadcasts everything it causally knows and merges what it receives. Its
// knowledge after round t is exactly its view V_{p}(t) of the process-time
// graph, so any check.Rule — in particular the universal algorithms of
// Theorems 5.5 and 6.7 — can be evaluated locally.
//
// This is the runnable counterpart of the paper's universal construction:
// no global information is consulted; the process reconstructs its own
// hash-consed ViewID from received knowledge alone (and the tests verify
// it coincides with the globally-computed one).
type FullInfo struct {
	rule check.Rule

	self, n int
	round   int
	// inputs[q] is x_q for heard processes; heard gates validity.
	inputs []int
	heard  uint64
	// inEdges[node] is the known in-neighbourhood of process-time node
	// (q,s), s ≥ 1, for every node in the causal past.
	inEdges map[ptg.TimeNode]uint64
	// receivedFrom accumulates this round's senders.
	receivedFrom uint64

	decided  bool
	decision int
}

var _ Process = (*FullInfo)(nil)

// knowledgeSnapshot is the immutable message payload: a copy of the
// sender's causal knowledge.
type knowledgeSnapshot struct {
	inputs  []int
	heard   uint64
	inEdges map[ptg.TimeNode]uint64
}

// NewFullInfo returns a factory of full-information processes driven by
// the rule.
func NewFullInfo(rule check.Rule) func() Process {
	return func() Process { return &FullInfo{rule: rule} }
}

// Init implements Process.
func (f *FullInfo) Init(self, n, input int) {
	f.self, f.n = self, n
	f.round = 0
	f.inputs = make([]int, n)
	for q := range f.inputs {
		f.inputs[q] = -1
	}
	f.inputs[self] = input
	f.heard = 1 << uint(self)
	f.inEdges = make(map[ptg.TimeNode]uint64, 16)
	f.receivedFrom = 0
	f.decided = false
	f.tryDecide()
}

// Message implements Process: broadcast a snapshot of all knowledge.
func (f *FullInfo) Message() Message {
	edges := make(map[ptg.TimeNode]uint64, len(f.inEdges))
	for k, v := range f.inEdges {
		edges[k] = v
	}
	return knowledgeSnapshot{
		inputs:  append([]int(nil), f.inputs...),
		heard:   f.heard,
		inEdges: edges,
	}
}

// Deliver implements Process: merge the sender's knowledge.
func (f *FullInfo) Deliver(from int, msg Message) {
	f.receivedFrom |= 1 << uint(from)
	if from == f.self {
		return // own state is already known
	}
	snap, ok := msg.(knowledgeSnapshot)
	if !ok {
		// Foreign message type: a full-information process can only be
		// composed with its own kind; ignoring would silently corrupt
		// every experiment, so fail loudly.
		panic("sim: FullInfo received a non-knowledge message")
	}
	f.heard |= snap.heard
	for q, x := range snap.inputs {
		if x >= 0 {
			f.inputs[q] = x
		}
	}
	for node, in := range snap.inEdges {
		f.inEdges[node] = in
	}
}

// EndRound implements Process: close the round, record the own in-edge
// set, and evaluate the decision rule.
func (f *FullInfo) EndRound() {
	f.round++
	f.inEdges[ptg.TimeNode{Proc: f.self, Time: f.round}] = f.receivedFrom
	f.receivedFrom = 0
	f.tryDecide()
}

// Decision implements Process.
func (f *FullInfo) Decision() (int, bool) { return f.decision, f.decided }

func (f *FullInfo) tryDecide() {
	if f.decided {
		return
	}
	id := check.NoViewID
	if in := f.rule.Interner(); in != nil {
		id = f.viewID(in)
	}
	v := check.NewView(f.round, f.self, id, f.heard, f.inputs)
	if value, ok := f.rule.Decide(v); ok {
		f.decided = true
		f.decision = value
	}
}

// viewID reconstructs the hash-consed identity of the own view from local
// knowledge, bottom-up over the causal cone.
func (f *FullInfo) viewID(in *ptg.Interner) ptg.ViewID {
	memo := make(map[ptg.TimeNode]ptg.ViewID, len(f.inEdges)+f.n)
	var id func(node ptg.TimeNode) ptg.ViewID
	id = func(node ptg.TimeNode) ptg.ViewID {
		if v, ok := memo[node]; ok {
			return v
		}
		var out ptg.ViewID
		if node.Time == 0 {
			out = in.Leaf(node.Proc, f.inputs[node.Proc])
		} else {
			mask := f.inEdges[node]
			row := make([]ptg.ViewID, f.n)
			for q := 0; q < f.n; q++ {
				if mask&(1<<uint(q)) != 0 {
					row[q] = id(ptg.TimeNode{Proc: q, Time: node.Time - 1})
				}
			}
			out = in.Node(node.Proc, mask, row)
		}
		memo[node] = out
		return out
	}
	return id(ptg.TimeNode{Proc: f.self, Time: f.round})
}
