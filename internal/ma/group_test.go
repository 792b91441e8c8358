package ma_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/ma"
	"topocon/internal/scenario"
)

// corpusGroups returns the group Automorphisms finds for every adversary
// of the scenarios/ corpus, sweep template cells included, and for
// adversaries of every advgen generator, keyed by a name.
func corpusGroups(t *testing.T) map[string]*ma.Group {
	t.Helper()
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under scenarios/: %v", err)
	}
	out := make(map[string]*ma.Group)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if scenario.IsTemplate(data) {
			tpl, err := scenario.ParseTemplate(data)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			cells, err := tpl.Expand()
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			for _, c := range cells {
				out[c.Scenario.Name] = ma.Automorphisms(c.Scenario.Adversary)
			}
			continue
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[sc.Name] = ma.Automorphisms(sc.Adversary)
	}
	out["advgen/lossy-star-4"] = ma.Automorphisms(advgen.LossyStar4())
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 4; n++ {
		for i := 0; i < 3; i++ {
			out[fmt.Sprintf("advgen/symmetric-%d-%d", n, i)] = ma.Automorphisms(advgen.SymmetricOblivious(rng, n))
			out[fmt.Sprintf("advgen/asymmetric-%d-%d", n, i)] = ma.Automorphisms(advgen.AsymmetricOblivious(rng, n))
			out[fmt.Sprintf("advgen/window-stable-%d-%d", n, i)] = ma.Automorphisms(advgen.WindowStableSymmetric(rng, n))
			out[fmt.Sprintf("advgen/fully-symmetric-%d-%d", n, i)] = ma.Automorphisms(advgen.FullySymmetricOblivious(rng, n))
		}
	}
	return out
}

// TestGroupTable checks the multiplication table of every corpus group and
// of its products with Sym(V) over two and three values: element 0 is the
// identity, Mul composes both parts, and Inv inverts. Rebuilding a product
// through NewGroup from its own elements gives the same fingerprint and
// table, as an interner blob's group header does.
func TestGroupTable(t *testing.T) {
	products := 0
	for name, open := range corpusGroups(t) {
		for _, g := range []*ma.Group{open, open.OnDomain(2), open.OnDomain(3)} {
			checkTable(t, fmt.Sprintf("%s over %d values", name, g.Domain()), g)
			if g.Domain() == 0 {
				continue
			}
			products++
			perms, vals := make([][]int, g.Order()), make([][]int, g.Order())
			for k := range perms {
				perms[k], vals[k] = g.Elem(k), g.Values(k)
			}
			again, err := ma.NewGroup(perms, vals)
			if err != nil {
				t.Fatalf("%s over %d values: NewGroup of its own elements: %v", name, g.Domain(), err)
			}
			mul, inv := g.Table()
			mulAgain, invAgain := again.Table()
			if again.Fingerprint() != g.Fingerprint() || !slices.Equal(mul, mulAgain) || !slices.Equal(inv, invAgain) {
				t.Fatalf("%s over %d values: NewGroup of its own elements is another group", name, g.Domain())
			}
		}
	}
	if products == 0 {
		t.Fatal("no corpus group has a value part")
	}
}

// checkTable checks g's table against composing its elements.
func checkTable(t *testing.T, name string, g *ma.Group) {
	t.Helper()
	m, n, d := g.Order(), g.N(), g.Domain()
	for p, q := range g.Elem(0) {
		if p != q {
			t.Fatalf("%s: element 0 moves process %d", name, p)
		}
	}
	if g.MovesValues(0) {
		t.Fatalf("%s: element 0 moves values", name)
	}
	for a := 0; a < m; a++ {
		ia := g.Inv(uint8(a))
		if g.Mul(uint8(a), ia) != 0 || g.Mul(ia, uint8(a)) != 0 {
			t.Fatalf("%s: Inv(%d) = %d does not invert it", name, a, ia)
		}
		for b := 0; b < m; b++ {
			ab := int(g.Mul(uint8(a), uint8(b)))
			for p := 0; p < n; p++ {
				if got, want := g.Elem(ab)[p], g.Elem(a)[g.Elem(b)[p]]; got != want {
					t.Fatalf("%s: Mul(%d, %d) = %d maps process %d to %d, the composition to %d", name, a, b, ab, p, got, want)
				}
			}
			for x := 0; x < d; x++ {
				if got, want := g.Value(ab, x), g.Value(a, g.Value(b, x)); got != want {
					t.Fatalf("%s: Mul(%d, %d) = %d maps value %d to %d, the composition to %d", name, a, b, ab, x, got, want)
				}
			}
		}
	}
}

// TestNewGroupRejects feeds NewGroup sets that are not groups in the given
// order, ragged ones among them: each must be an error, never a panic.
func TestNewGroupRejects(t *testing.T) {
	s3 := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	swap := [][]int{{0, 1}, {1, 0}}
	tooMany := make([][]int, ma.MaxGroupOrder+1)
	for k := range tooMany {
		tooMany[k] = []int{0}
	}
	for _, tc := range []struct {
		name        string
		perms, vals [][]int
	}{
		{"empty", nil, nil},
		{"too many elements", tooMany, nil},
		{"no processes", [][]int{{}}, nil},
		{"not closed", [][]int{{0, 1, 2}, {1, 2, 0}}, nil},
		{"identity not first", [][]int{{1, 0}, {0, 1}}, nil},
		{"repeated element", [][]int{{0, 1}, {1, 0}, {1, 0}}, nil},
		{"not a permutation", [][]int{{0, 1}, {1, 1}}, nil},
		{"out of range", [][]int{{0, 1}, {2, 0}}, nil},
		{"negative image", [][]int{{0, 1}, {-1, 0}}, nil},
		{"mixed arity", [][]int{{0, 1}, {1, 0, 2}}, nil},
		{"nil element", [][]int{{0, 1}, nil}, nil},
		{"value part too short", swap, [][]int{{0, 1}}},
		{"value part too long", swap, [][]int{{0, 1}, {1, 0}, {0, 1}}},
		{"value part mixed arity", swap, [][]int{{0, 1}, {1, 0, 2}}},
		{"value part empty", swap, [][]int{{}, {}}},
		{"value part nil element", swap, [][]int{{0, 1}, nil}},
		{"value part not a permutation", swap, [][]int{{0, 1}, {0, 0}}},
		{"value part identity not first", swap, [][]int{{1, 0}, {0, 1}}},
		{"value part not closed", s3, [][]int{{0, 1}, {1, 0}, {1, 0}, {0, 1}, {0, 1}, {0, 1}}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewGroup panicked: %v", tc.name, r)
				}
			}()
			if g, err := ma.NewGroup(tc.perms, tc.vals); err == nil {
				t.Errorf("%s: NewGroup accepted %v / %v as a group of order %d", tc.name, tc.perms, tc.vals, g.Order())
			}
		}()
	}
	if g, err := ma.NewGroup(s3, nil); err != nil || g.Order() != 6 {
		t.Fatalf("S3: %v", err)
	}
	if g, err := ma.NewGroup(swap, [][]int{{0, 1, 2}, {0, 1, 2}}); err != nil || g.Order() != 2 || g.Domain() != 3 {
		t.Fatalf("a swap with an identity value part: %v", err)
	}
}
