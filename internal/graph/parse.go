package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a graph on n nodes from a textual edge list with 1-based
// process ids, e.g. "1->2, 2->3, 3->1". The tokens "p<->q" and "p--q" add
// both directions; an empty string (or "[]") yields the self-loop-only
// graph.
func Parse(n int, s string) (Graph, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	g := New(n)
	if strings.TrimSpace(s) == "" {
		return g, nil
	}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	edges := make([]Edge, 0, len(fields))
	for _, tok := range fields {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		both := false
		var sep string
		switch {
		case strings.Contains(tok, "<->"):
			sep, both = "<->", true
		case strings.Contains(tok, "--"):
			sep, both = "--", true
		case strings.Contains(tok, "->"):
			sep = "->"
		default:
			return Graph{}, fmt.Errorf("graph: cannot parse edge token %q", tok)
		}
		parts := strings.SplitN(tok, sep, 2)
		from, err := parseID(parts[0], n)
		if err != nil {
			return Graph{}, fmt.Errorf("graph: token %q: %w", tok, err)
		}
		to, err := parseID(parts[1], n)
		if err != nil {
			return Graph{}, fmt.Errorf("graph: token %q: %w", tok, err)
		}
		edges = append(edges, Edge{From: from, To: to})
		if both {
			edges = append(edges, Edge{From: to, To: from})
		}
	}
	return FromEdges(n, edges)
}

// MustParse is Parse for statically-known inputs; it panics on error.
func MustParse(n int, s string) Graph {
	g, err := Parse(n, s)
	if err != nil {
		panic(err)
	}
	return g
}

func parseID(s string, n int) (int, error) {
	id, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("invalid process id %q", s)
	}
	if id < 1 || id > n {
		return 0, fmt.Errorf("process id %d out of range [1,%d]", id, n)
	}
	return id - 1, nil
}

// The lossy-link graphs for n = 2, in the paper's arrow notation: process 1
// is the left process, process 2 the right one.
var (
	// Left is "←": only 2 → 1 succeeds.
	Left = MustParse(2, "2->1")
	// Right is "→": only 1 → 2 succeeds.
	Right = MustParse(2, "1->2")
	// Both is "↔": both messages arrive.
	Both = MustParse(2, "1<->2")
	// Neither delivers no message at all (not part of the classic lossy
	// link set, but needed for sweeps).
	Neither = New(2)
)

// Arrow renders a 2-node graph in the paper's arrow notation.
func Arrow(g Graph) string {
	if g.N() != 2 {
		return g.String()
	}
	r := g.HasEdge(0, 1)
	l := g.HasEdge(1, 0)
	switch {
	case l && r:
		return "<->"
	case l:
		return "<-"
	case r:
		return "->"
	default:
		return "--"
	}
}
