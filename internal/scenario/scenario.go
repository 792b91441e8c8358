// Package scenario defines the declarative JSON scenario format: a named
// workload consisting of a message adversary — written as a combinator
// expression over the ma package's algebra — plus checker options and an
// optional expected verdict.
//
// A scenario document looks like:
//
//	{
//	  "name": "chaos-then-stable",
//	  "description": "two rounds of anything, then the reduced lossy link",
//	  "n": 2,
//	  "graphs": {"L": "2->1", "R": "1->2"},
//	  "adversary": {
//	    "op": "concat",
//	    "first": {"op": "unrestricted"},
//	    "rounds": 2,
//	    "then": {"op": "oblivious", "graphs": ["L", "R"]}
//	  },
//	  "check": {"maxHorizon": 5},
//	  "expect": "solvable"
//	}
//
// Graph operands are resolved against the named "graphs" table first and
// otherwise parsed as edge lists in the usual "1->2, 2<->3" syntax, so
// one-off graphs need no table entry. The expression grammar (operand
// fields per op) is documented on Expr; the full combinator semantics
// table lives in DESIGN.md.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"topocon/internal/check"
	"topocon/internal/graph"
	"topocon/internal/ma"
)

// Spec is the raw JSON document of a scenario.
type Spec struct {
	// Name identifies the scenario (registry key, CLI display).
	Name string `json:"name"`
	// Description is a one-line human-readable summary.
	Description string `json:"description,omitempty"`
	// N is the number of processes (1..graph.MaxNodes).
	N int `json:"n"`
	// Graphs names reusable round graphs, values in edge-list syntax.
	Graphs map[string]string `json:"graphs,omitempty"`
	// Adversary is the combinator expression tree.
	Adversary *Expr `json:"adversary"`
	// Check carries the checker options (zero values select defaults).
	Check *CheckSpec `json:"check,omitempty"`
	// Expect is the optional expected verdict: "solvable", "impossible"
	// or "unknown".
	Expect string `json:"expect,omitempty"`
}

// CheckSpec mirrors check.Options in JSON form.
type CheckSpec struct {
	InputDomain  int `json:"inputDomain,omitempty"`
	MaxHorizon   int `json:"maxHorizon,omitempty"`
	MaxRuns      int `json:"maxRuns,omitempty"`
	DefaultValue int `json:"defaultValue,omitempty"`
	CertChainLen int `json:"certChainLen,omitempty"`
	LatencySlack int `json:"latencySlack,omitempty"`
}

// Expr is one node of the combinator expression tree. Op selects the
// combinator; the other fields are its operands:
//
//	op                  operands
//	"oblivious"         graphs (≥1 refs)
//	"unrestricted"      — (all graphs on n nodes; n ≤ 4)
//	"loss-bounded"      f (≥0 lost messages per round; n ≤ 4)
//	"eventually-stable" chaos, stable (refs), window
//	"deadline-stable"   chaos, stable, window, deadline
//	"committed-suffix"  free, commit (refs), deadline
//	"lasso-set"         words (≥1)
//	"exclusion"         arg (base), words (≥1)
//	"union"             args (≥1)
//	"intersect"         args (exactly 2)
//	"concat"            first, rounds, then
//	"filter"            arg, pred (name), degree (min-out-degree only)
//	"window-stable"     arg, window
//
// Graph references ("refs") are names from the spec's graphs table or
// inline edge lists.
type Expr struct {
	Op   string `json:"op"`
	Name string `json:"name,omitempty"`

	Args  []*Expr `json:"args,omitempty"`
	First *Expr   `json:"first,omitempty"`
	Then  *Expr   `json:"then,omitempty"`
	Arg   *Expr   `json:"arg,omitempty"`

	Graphs []string `json:"graphs,omitempty"`
	Chaos  []string `json:"chaos,omitempty"`
	Stable []string `json:"stable,omitempty"`
	Free   []string `json:"free,omitempty"`
	Commit []string `json:"commit,omitempty"`

	Words []WordSpec `json:"words,omitempty"`

	Pred     string `json:"pred,omitempty"`
	Degree   int    `json:"degree,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Window   int    `json:"window,omitempty"`
	Deadline int    `json:"deadline,omitempty"`
	F        int    `json:"f,omitempty"`
}

// WordSpec is an ultimately-periodic graph word u·v^ω in reference form.
type WordSpec struct {
	Prefix []string `json:"prefix,omitempty"`
	Cycle  []string `json:"cycle"`
}

// Scenario is a parsed and built scenario: the adversary is constructed
// and ready for an Analyzer session.
type Scenario struct {
	// Name and Description are copied from the spec.
	Name        string
	Description string
	// Adversary is the built combinator expression.
	Adversary ma.Adversary
	// Options are the checker options of the spec (zero values intact;
	// the Analyzer applies its defaults).
	Options check.Options
	// Expect is the expected verdict, or 0 when the spec does not pin one.
	Expect check.Verdict
	// Spec is the raw document the scenario was built from.
	Spec Spec
}

// Fingerprint returns the canonical behavioural hash of the scenario's
// adversary at the given exploration depth (see ma.Fingerprint).
func (s *Scenario) Fingerprint(depth int) string {
	return ma.Fingerprint(s.Adversary, depth)
}

// maxEnumeratedNodes caps the ops that enumerate all graphs on n nodes
// (2^(n(n-1)) of them): beyond 4 nodes the set no longer fits a workload.
const maxEnumeratedNodes = 4

// maxSpecRounds caps every round-valued field of a spec (concat rounds,
// stability windows, deadlines). Analysis horizons are single digits; the
// cap only rejects hostile documents that would otherwise inflate
// combinator state spaces (the restriction combinators' construction-time
// pruning explores them) far past any analysable size.
const maxSpecRounds = 10000

// Parse decodes, validates and builds a scenario document. Unknown fields
// are rejected, graph references are resolved against the named table or
// parsed as edge lists, and every combinator constructor's own validation
// applies (node-count agreement, non-empty restrictions, ...).
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	return Build(spec)
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Build constructs the scenario from an already-decoded spec.
func Build(spec Spec) (*Scenario, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("scenario: missing name")
	}
	if spec.N < 1 || spec.N > graph.MaxNodes {
		return nil, fmt.Errorf("scenario %q: n=%d out of range [1,%d]", spec.Name, spec.N, graph.MaxNodes)
	}
	if spec.Adversary == nil {
		return nil, fmt.Errorf("scenario %q: missing adversary expression", spec.Name)
	}
	expect, err := parseExpect(spec.Expect)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	b := &builder{spec: &spec, named: make(map[string]graph.Graph, len(spec.Graphs))}
	for name, src := range spec.Graphs {
		g, err := graph.Parse(spec.N, src)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: graph %q: %w", spec.Name, name, err)
		}
		b.named[name] = g
	}
	adv, err := b.build(spec.Adversary)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	s := &Scenario{
		Name:        spec.Name,
		Description: spec.Description,
		Adversary:   adv,
		Expect:      expect,
		Spec:        spec,
	}
	if c := spec.Check; c != nil {
		s.Options = check.Options{
			InputDomain:  c.InputDomain,
			MaxHorizon:   c.MaxHorizon,
			MaxRuns:      c.MaxRuns,
			DefaultValue: c.DefaultValue,
			CertChainLen: c.CertChainLen,
			LatencySlack: c.LatencySlack,
		}
	}
	return s, nil
}

func parseExpect(s string) (check.Verdict, error) {
	switch s {
	case "":
		return 0, nil
	case "solvable":
		return check.VerdictSolvable, nil
	case "impossible":
		return check.VerdictImpossible, nil
	case "unknown":
		return check.VerdictUnknown, nil
	default:
		return 0, fmt.Errorf("unknown expected verdict %q", s)
	}
}

type builder struct {
	spec  *Spec
	named map[string]graph.Graph
}

// graph resolves one graph reference: a named table entry or an inline
// edge list.
func (b *builder) graph(ref string) (graph.Graph, error) {
	if g, ok := b.named[ref]; ok {
		return g, nil
	}
	g, err := graph.Parse(b.spec.N, ref)
	if err != nil {
		return graph.Graph{}, fmt.Errorf("graph ref %q: %w", ref, err)
	}
	return g, nil
}

func (b *builder) graphs(refs []string) ([]graph.Graph, error) {
	out := make([]graph.Graph, len(refs))
	for i, ref := range refs {
		g, err := b.graph(ref)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

func (b *builder) word(w WordSpec) (ma.GraphWord, error) {
	prefix, err := b.graphs(w.Prefix)
	if err != nil {
		return ma.GraphWord{}, err
	}
	cycle, err := b.graphs(w.Cycle)
	if err != nil {
		return ma.GraphWord{}, err
	}
	return ma.NewGraphWord(prefix, cycle)
}

func (b *builder) words(specs []WordSpec) ([]ma.GraphWord, error) {
	out := make([]ma.GraphWord, len(specs))
	for i, w := range specs {
		word, err := b.word(w)
		if err != nil {
			return nil, err
		}
		out[i] = word
	}
	return out, nil
}

// pred resolves a named graph predicate for the filter op.
func (b *builder) pred(e *Expr) (ma.GraphPred, error) {
	switch e.Pred {
	case "strongly-connected":
		return ma.PredStronglyConnected(), nil
	case "min-out-degree":
		if e.Degree < 0 {
			return ma.GraphPred{}, fmt.Errorf("filter: negative degree %d", e.Degree)
		}
		return ma.PredMinOutDegree(e.Degree), nil
	case "rooted":
		return ma.PredRooted(), nil
	case "star":
		return ma.PredStar(), nil
	case "nonsplit":
		return ma.PredNonsplit(), nil
	case "":
		return ma.GraphPred{}, fmt.Errorf("filter: missing pred")
	default:
		return ma.GraphPred{}, fmt.Errorf("filter: unknown pred %q", e.Pred)
	}
}

// namelessOps are the expression ops whose ma constructor takes no name:
// a spec naming one of them would be silently ignored, so it is rejected.
var namelessOps = map[string]bool{
	"unrestricted":  true,
	"loss-bounded":  true,
	"exclusion":     true,
	"window-stable": true,
}

func (b *builder) build(e *Expr) (ma.Adversary, error) {
	if e == nil {
		return nil, fmt.Errorf("missing expression node")
	}
	if e.Name != "" && namelessOps[e.Op] {
		return nil, fmt.Errorf("%s: op does not accept a name (got %q)", e.Op, e.Name)
	}
	for _, rounds := range []int{e.Rounds, e.Window, e.Deadline} {
		if rounds > maxSpecRounds {
			return nil, fmt.Errorf("%s: round-valued field %d exceeds the cap %d", e.Op, rounds, maxSpecRounds)
		}
	}
	switch e.Op {
	case "oblivious":
		set, err := b.graphs(e.Graphs)
		if err != nil {
			return nil, err
		}
		return ma.NewOblivious(e.Name, set)

	case "unrestricted":
		if b.spec.N > maxEnumeratedNodes {
			return nil, fmt.Errorf("unrestricted: n=%d exceeds the enumeration cap %d", b.spec.N, maxEnumeratedNodes)
		}
		return ma.Unrestricted(b.spec.N), nil

	case "loss-bounded":
		if b.spec.N > maxEnumeratedNodes {
			return nil, fmt.Errorf("loss-bounded: n=%d exceeds the enumeration cap %d", b.spec.N, maxEnumeratedNodes)
		}
		if e.F < 0 {
			return nil, fmt.Errorf("loss-bounded: negative f %d", e.F)
		}
		return ma.LossBounded(b.spec.N, e.F), nil

	case "eventually-stable":
		chaos, err := b.graphs(e.Chaos)
		if err != nil {
			return nil, err
		}
		stable, err := b.graphs(e.Stable)
		if err != nil {
			return nil, err
		}
		return ma.NewEventuallyStable(e.Name, chaos, stable, e.Window)

	case "deadline-stable":
		chaos, err := b.graphs(e.Chaos)
		if err != nil {
			return nil, err
		}
		stable, err := b.graphs(e.Stable)
		if err != nil {
			return nil, err
		}
		inner, err := ma.NewEventuallyStable(e.Name, chaos, stable, e.Window)
		if err != nil {
			return nil, err
		}
		return ma.NewDeadlineStable(inner, e.Deadline)

	case "committed-suffix":
		free, err := b.graphs(e.Free)
		if err != nil {
			return nil, err
		}
		commit, err := b.graphs(e.Commit)
		if err != nil {
			return nil, err
		}
		return ma.NewCommittedSuffix(e.Name, free, commit, e.Deadline)

	case "lasso-set":
		words, err := b.words(e.Words)
		if err != nil {
			return nil, err
		}
		return ma.NewLassoSet(e.Name, words)

	case "exclusion":
		base, err := b.build(e.Arg)
		if err != nil {
			return nil, err
		}
		words, err := b.words(e.Words)
		if err != nil {
			return nil, err
		}
		return ma.NewExclusion(base, words)

	case "union":
		members := make([]ma.Adversary, len(e.Args))
		for i, arg := range e.Args {
			m, err := b.build(arg)
			if err != nil {
				return nil, err
			}
			members[i] = m
		}
		return ma.NewUnion(e.Name, members...)

	case "intersect":
		if len(e.Args) != 2 {
			return nil, fmt.Errorf("intersect: need exactly 2 args, got %d", len(e.Args))
		}
		left, err := b.build(e.Args[0])
		if err != nil {
			return nil, err
		}
		right, err := b.build(e.Args[1])
		if err != nil {
			return nil, err
		}
		return ma.NewIntersect(e.Name, left, right)

	case "concat":
		first, err := b.build(e.First)
		if err != nil {
			return nil, err
		}
		then, err := b.build(e.Then)
		if err != nil {
			return nil, err
		}
		return ma.NewConcat(e.Name, first, e.Rounds, then)

	case "filter":
		base, err := b.build(e.Arg)
		if err != nil {
			return nil, err
		}
		pred, err := b.pred(e)
		if err != nil {
			return nil, err
		}
		return ma.NewFilter(base, e.Name, pred)

	case "window-stable":
		base, err := b.build(e.Arg)
		if err != nil {
			return nil, err
		}
		return ma.NewWindowStable(base, e.Window)

	case "":
		return nil, fmt.Errorf("expression node missing op")
	default:
		return nil, fmt.Errorf("unknown op %q", e.Op)
	}
}
