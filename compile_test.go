package topocon_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"topocon"
	"topocon/internal/advgen"
	"topocon/internal/check"
	"topocon/internal/ma"
)

// TestCompileMatchesAdversary pins ma.Compile against the interface it
// compiles: for every scenario in scenarios/, every cell of every sweep
// template and a set of advgen adversaries, a walk of the automaton to the
// analysis's MaxHorizon visits each reachable state with its table ID and
// requires the table's row to list the same choices in the same order,
// lead to the same successors and agree on Done. Interface states map to
// table IDs one to one. The largest reachable-state and alphabet sizes are
// logged.
func TestCompileMatchesAdversary(t *testing.T) {
	type target struct {
		name string
		adv  ma.Adversary
		opts check.Options
	}
	var targets []target
	files, templates := corpusFiles(t)
	for _, file := range files {
		s, err := topocon.LoadScenario(file)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{filepath.Base(file), s.Adversary, s.Options})
	}
	for _, file := range templates {
		tpl, err := topocon.LoadTemplate(file)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := tpl.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			targets = append(targets, target{c.Scenario.Name, c.Scenario.Adversary, c.Scenario.Options})
		}
	}
	rng := rand.New(rand.NewSource(23))
	targets = append(targets, target{"lossy-star-4", advgen.LossyStar4(), check.Options{}})
	for i := 0; i < 4; i++ {
		n := 2 + i%3
		targets = append(targets,
			target{"symmetric-oblivious", advgen.SymmetricOblivious(rng, n), check.Options{MaxHorizon: 4}},
			target{"window-stable-symmetric", advgen.WindowStableSymmetric(rng, n), check.Options{MaxHorizon: 4}},
			target{"fully-symmetric", advgen.FullySymmetricOblivious(rng, n), check.Options{MaxHorizon: 4}})
	}

	maxStates, maxLetters := 0, 0
	for _, tg := range targets {
		an, err := check.NewAnalyzer(tg.adv, check.WithOptions(tg.opts))
		if err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		tab, states := compareTable(t, tg.name, tg.adv, an.Options().MaxHorizon)
		if states > maxStates {
			maxStates = states
			t.Logf("%s: %d reachable states", tg.name, states)
		}
		if len(tab.Alphabet()) > maxLetters {
			maxLetters = len(tab.Alphabet())
			t.Logf("%s: %d distinct graphs", tg.name, len(tab.Alphabet()))
		}
	}
}

// compareTable walks adv breadth-first to the given depth alongside a
// fresh table and fails on the first disagreement. It returns the table
// and the number of states reached.
func compareTable(t *testing.T, name string, adv ma.Adversary, depth int) (*ma.Table, int) {
	t.Helper()
	tab := ma.Compile(adv)
	idOf := map[ma.State]int32{adv.Start(): tab.Start()}
	type node struct {
		s ma.State
		d int
	}
	queue := []node{{adv.Start(), 0}}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		id := idOf[nd.s]
		if tab.Done(id) != adv.Done(nd.s) {
			t.Fatalf("%s: state %d: table Done %v, adversary %v", name, id, tab.Done(id), adv.Done(nd.s))
		}
		if nd.d == depth {
			continue
		}
		choices := adv.Choices(nd.s)
		row := tab.Row(id)
		if len(row.Letters) != len(choices) || len(row.Next) != len(choices) {
			t.Fatalf("%s: state %d: table row of %d letters and %d successors, adversary %d choices",
				name, id, len(row.Letters), len(row.Next), len(choices))
		}
		for j, g := range choices {
			if got := tab.Graph(row.Letters[j]); !got.Equal(g) {
				t.Fatalf("%s: state %d choice %d: table %v, adversary %v", name, id, j, got, g)
			}
			next := adv.Step(nd.s, g)
			want, seen := idOf[next]
			if !seen {
				want = row.Next[j]
				for s, other := range idOf {
					if other == want {
						t.Fatalf("%s: state %d choice %d: table leads to %d, already the ID of state %v, adversary to %v",
							name, id, j, want, s, next)
					}
				}
				idOf[next] = want
				queue = append(queue, node{next, nd.d + 1})
			}
			if row.Next[j] != want {
				t.Fatalf("%s: state %d choice %d: table leads to %d, adversary to the state with ID %d", name, id, j, row.Next[j], want)
			}
		}
	}
	letterOf := map[string]int{}
	for l, g := range tab.Alphabet() {
		if k, dup := letterOf[g.Key()]; dup {
			t.Fatalf("%s: graph %v has letters %d and %d", name, g, k, l)
		}
		letterOf[g.Key()] = l
	}
	return tab, len(idOf)
}
