package ma

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"topocon/internal/graph"
)

// Table is an adversary compiled to integers for one analysis session: its
// reachable states get dense IDs (the start state is 0), the distinct
// graphs they offer get letters (indices into Alphabet), and each state a
// Row listing its choices as letters with the state each one leads to.
//
// Rows are compiled lazily, the first time Row is asked for a state, so the
// table holds exactly the states a session reaches and needs no size cap.
// Compiling a row calls Choices once for its state and Step once per
// choice, and Done once for each state it discovers; the table never asks
// the interface about that state again.
//
// A Table is not safe for concurrent use: it belongs to one session, which
// runs on one goroutine.
type Table struct {
	adv      Adversary
	alphabet []graph.Graph
	letters  map[string]int32 // Graph.Key -> letter
	states   []State          // state ID -> state
	ids      map[State]int32
	done     []bool // state ID -> Done
	rows     []Row  // state ID -> row, compiled on first use
}

// Row is one compiled state: Letters are its choices in Choices order and
// Next[j] is the ID of the state playing Letters[j] leads to.
type Row struct {
	Letters []int32
	Next    []int32
}

// Compile returns an empty table for adv with its start state registered as
// state 0. Rows are filled in as Row reaches them.
func Compile(adv Adversary) *Table {
	t := &Table{adv: adv, letters: make(map[string]int32), ids: make(map[State]int32)}
	t.stateID(adv.Start())
	return t
}

// Start returns the start state's ID, 0.
func (t *Table) Start() int32 { return 0 }

// Done reports whether state s discharges the adversary's obligations.
func (t *Table) Done(s int32) bool { return t.done[s] }

// Graph returns the graph of letter l.
func (t *Table) Graph(l int32) graph.Graph { return t.alphabet[l] }

// Alphabet returns the graphs lettered so far, indexed by letter. It grows
// as rows are compiled, so callers must not hold it across a Row call that
// may compile; the returned slice must not be mutated.
func (t *Table) Alphabet() []graph.Graph { return t.alphabet }

// Row returns state s's row, compiling it on first use. The row's slices
// must not be mutated.
func (t *Table) Row(s int32) Row {
	if t.rows[s].Letters == nil {
		t.compileRow(s)
	}
	return t.rows[s]
}

// RowDigest returns a hex-encoded SHA-256 over the rows compiled so far, in
// state-ID order: for each compiled state its ID and Done flag, then each
// choice's graph (graph.Key) and successor ID in row order. Rows compile in
// first-reach order, so two tables that compiled the same rows of one
// spelling of an adversary digest equally; a spelling that lists some
// state's choices in another order, or numbers its states otherwise,
// digests differently even under the same Fingerprint.
func (t *Table) RowDigest() string {
	h := sha256.New()
	for s, r := range t.rows {
		if r.Letters == nil {
			continue
		}
		fmt.Fprintf(h, "%d %t:", s, t.done[s])
		for j, l := range r.Letters {
			fmt.Fprintf(h, " %s>%d", t.alphabet[l].Key(), r.Next[j])
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compileRow asks the adversary for state s's choices and successors. The
// successors' IDs may grow t.rows, so the row is written back by index.
func (t *Table) compileRow(s int32) {
	st := t.states[s]
	choices := t.adv.Choices(st)
	letters := make([]int32, len(choices))
	next := make([]int32, len(choices))
	for j, g := range choices {
		k := g.Key()
		l, ok := t.letters[k]
		if !ok {
			l = int32(len(t.alphabet))
			t.letters[k] = l
			t.alphabet = append(t.alphabet, g)
		}
		letters[j] = l
		next[j] = t.stateID(t.adv.Step(st, g))
	}
	t.rows[s] = Row{Letters: letters, Next: next}
}

// stateID returns the ID of st, registering it (and calling Done on it
// once) on first sight.
func (t *Table) stateID(st State) int32 {
	if id, ok := t.ids[st]; ok {
		return id
	}
	id := int32(len(t.states))
	t.ids[st] = id
	t.states = append(t.states, st)
	t.done = append(t.done, t.adv.Done(st))
	t.rows = append(t.rows, Row{})
	return id
}
