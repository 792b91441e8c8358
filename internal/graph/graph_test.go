package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHasSelfLoopsOnly(t *testing.T) {
	for n := 1; n <= 5; n++ {
		g := New(n)
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				want := p == q
				if got := g.HasEdge(p, q); got != want {
					t.Errorf("n=%d: HasEdge(%d,%d) = %v, want %v", n, p, q, got, want)
				}
			}
		}
		if g.EdgeCount() != 0 {
			t.Errorf("n=%d: EdgeCount() = %d, want 0", n, g.EdgeCount())
		}
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	for _, n := range []int{0, -1, MaxNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Errorf("missing expected edges in %v", g)
	}
	if g.HasEdge(1, 0) {
		t.Errorf("unexpected edge 1->0 in %v", g)
	}
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("FromEdges with out-of-range endpoint: want error, got nil")
	}
}

func TestFromInMasks(t *testing.T) {
	g, err := FromInMasks(3, []uint64{0b010, 0b000, 0b011})
	if err != nil {
		t.Fatalf("FromInMasks: %v", err)
	}
	// Self-loops must have been added.
	for q := 0; q < 3; q++ {
		if !g.HasEdge(q, q) {
			t.Errorf("self-loop missing at %d", q)
		}
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 2) || !g.HasEdge(1, 2) {
		t.Errorf("missing expected edges in %v", g)
	}
	if _, err := FromInMasks(2, []uint64{0b100, 0}); err == nil {
		t.Error("FromInMasks with out-of-range bit: want error, got nil")
	}
	if _, err := FromInMasks(2, []uint64{0}); err == nil {
		t.Error("FromInMasks with wrong mask count: want error, got nil")
	}
}

func TestOutMatchesIn(t *testing.T) {
	g := MustParse(4, "1->2, 1->3, 3->4, 4->1")
	for p := 0; p < 4; p++ {
		out := g.Out(p)
		for q := 0; q < 4; q++ {
			inHas := g.HasEdge(p, q)
			outHas := out&(1<<uint(q)) != 0
			if inHas != outHas {
				t.Errorf("Out(%d) bit %d = %v, HasEdge = %v", p, q, outHas, inHas)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	want := []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 1}}
	g := MustFromEdges(3, want)
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
	h := MustFromEdges(3, got)
	if !g.Equal(h) {
		t.Errorf("round trip mismatch: %v vs %v", g, h)
	}
}

func TestUnionCompose(t *testing.T) {
	a := MustParse(3, "1->2")
	b := MustParse(3, "2->3")
	u := a.Union(b)
	if !u.HasEdge(0, 1) || !u.HasEdge(1, 2) {
		t.Errorf("union missing edges: %v", u)
	}
	c := a.Compose(b)
	if !c.HasEdge(0, 2) {
		t.Errorf("compose 1->2;2->3 must contain 1->3: %v", c)
	}
	// Self-loops make composition contain both factors.
	if !c.HasEdge(0, 1) || !c.HasEdge(1, 2) {
		t.Errorf("compose must contain both factors: %v", c)
	}
}

func TestComposeAssociativeQuick(t *testing.T) {
	const n = 4
	total := CountAll(n)
	f := func(ai, bi, ci uint64) bool {
		a := ByIndex(n, ai%total)
		b := ByIndex(n, bi%total)
		c := ByIndex(n, ci%total)
		return a.Compose(b).Compose(c).Equal(a.Compose(b.Compose(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpreadReachable(t *testing.T) {
	g := MustParse(4, "1->2, 2->3, 3->4")
	if got := g.Spread(1); got != 0b0011 {
		t.Errorf("Spread({1}) = %s, want {1,2}", FormatNodeSet(got))
	}
	if got := g.ReachableFrom(1); got != 0b1111 {
		t.Errorf("ReachableFrom({1}) = %s, want all", FormatNodeSet(got))
	}
	if got := g.ReachableFrom(1 << 3); got != 0b1000 {
		t.Errorf("ReachableFrom({4}) = %s, want {4}", FormatNodeSet(got))
	}
}

func TestBroadcasters(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want uint64
	}{
		{"chain", Chain(4), 1},
		{"cycle", Cycle(4), 0b1111},
		{"star", Star(4, 2), 1 << 2},
		{"empty", New(3), 0},
		{"complete", Complete(3), 0b111},
	}
	for _, tt := range tests {
		if got := tt.g.Broadcasters(); got != tt.want {
			t.Errorf("%s: Broadcasters() = %s, want %s",
				tt.name, FormatNodeSet(got), FormatNodeSet(tt.want))
		}
	}
}

func TestSpreadMonotoneQuick(t *testing.T) {
	const n = 5
	total := CountAll(n)
	f := func(gi, srci uint64) bool {
		g := ByIndex(n, gi%total)
		src := srci & AllNodes(n)
		sp := g.Spread(src)
		// Self-loops guarantee src ⊆ Spread(src).
		return sp&src == src && g.ReachableFrom(src)&sp == sp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyDistinguishesGraphs(t *testing.T) {
	seen := make(map[string]Graph, CountAll(3))
	EnumerateAll(3, func(g Graph) bool {
		k := g.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("duplicate key %q for %v and %v", k, prev, g)
		}
		seen[k] = g
		return true
	})
	if len(seen) != int(CountAll(3)) {
		t.Errorf("enumerated %d distinct keys, want %d", len(seen), CountAll(3))
	}
}

// fmtKey renders Key's form with fmt: the reference Key must match byte
// for byte, because fingerprints, sweep keys and store keys embed it.
func fmtKey(g Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:", g.n)
	for q := 0; q < g.n; q++ {
		fmt.Fprintf(&sb, "%x.", g.in[q])
	}
	return sb.String()
}

// TestKeyMatchesFmtForm pins Key against fmtKey for every node count 1..64:
// self-loops only, the complete graph, and random masks.
func TestKeyMatchesFmtForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= MaxNodes; n++ {
		gs := []Graph{New(n), Complete(n)}
		for i := 0; i < 8; i++ {
			masks := make([]uint64, n)
			for q := range masks {
				masks[q] = rng.Uint64() & AllNodes(n)
			}
			g, err := FromInMasks(n, masks)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		for _, g := range gs {
			if got, want := g.Key(), fmtKey(g); got != want {
				t.Fatalf("n=%d: Key() = %q, want %q", n, got, want)
			}
		}
	}
}

func TestStringFormat(t *testing.T) {
	if got := New(2).String(); got != "[]" {
		t.Errorf("empty graph String() = %q, want []", got)
	}
	if got := MustParse(2, "1->2").String(); got != "[1->2]" {
		t.Errorf("String() = %q, want [1->2]", got)
	}
}

func TestAddRemoveEdgeImmutability(t *testing.T) {
	g := New(2)
	h := g.AddEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Error("AddEdge mutated the receiver")
	}
	if !h.HasEdge(0, 1) {
		t.Error("AddEdge result lacks the edge")
	}
	back := h.RemoveEdge(0, 1)
	if !g.Equal(back) {
		t.Error("RemoveEdge did not restore the original graph")
	}
	if !h.RemoveEdge(1, 1).HasEdge(1, 1) {
		t.Error("RemoveEdge removed a mandatory self-loop")
	}
}

func TestNodesAndFormatNodeSet(t *testing.T) {
	if got := FormatNodeSet(0b1011); got != "{1,2,4}" {
		t.Errorf("FormatNodeSet = %q, want {1,2,4}", got)
	}
	nodes := Nodes(0b1010)
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Errorf("Nodes(0b1010) = %v, want [1 3]", nodes)
	}
}

func TestEnumerateAllCountAndIndex(t *testing.T) {
	for n := 1; n <= 3; n++ {
		count := 0
		EnumerateAll(n, func(g Graph) bool {
			if got := IndexOf(g); got != uint64(count) {
				t.Fatalf("n=%d: IndexOf(graph #%d) = %d", n, count, got)
			}
			if !ByIndex(n, uint64(count)).Equal(g) {
				t.Fatalf("n=%d: ByIndex(%d) does not round-trip", n, count)
			}
			count++
			return true
		})
		if uint64(count) != CountAll(n) {
			t.Errorf("n=%d: enumerated %d graphs, want %d", n, count, CountAll(n))
		}
	}
}

func TestEnumerateAllEarlyStop(t *testing.T) {
	count := 0
	EnumerateAll(3, func(Graph) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d graphs, want 5", count)
	}
}

func TestInDegree(t *testing.T) {
	g := MustParse(3, "1->3, 2->3")
	if got := g.InDegree(2); got != 3 {
		t.Errorf("InDegree(3) = %d, want 3 (two senders + self)", got)
	}
	if got := g.InDegree(0); got != 1 {
		t.Errorf("InDegree(1) = %d, want 1", got)
	}
}

func TestGeneratorShapes(t *testing.T) {
	n := 5
	if c := Complete(n); c.EdgeCount() != n*(n-1) {
		t.Errorf("Complete(%d).EdgeCount() = %d", n, c.EdgeCount())
	}
	if c := Cycle(n); c.EdgeCount() != n {
		t.Errorf("Cycle(%d).EdgeCount() = %d", n, c.EdgeCount())
	}
	if c := Chain(n); c.EdgeCount() != n-1 {
		t.Errorf("Chain(%d).EdgeCount() = %d", n, c.EdgeCount())
	}
	if s := Star(n, 0); s.EdgeCount() != n-1 {
		t.Errorf("Star(%d,0).EdgeCount() = %d", n, s.EdgeCount())
	}
	if !Cycle(n).IsStronglyConnected() {
		t.Error("Cycle must be strongly connected")
	}
	if Chain(n).IsStronglyConnected() {
		t.Error("Chain must not be strongly connected")
	}
}

func TestEdgeCountMatchesOnes(t *testing.T) {
	EnumerateAll(3, func(g Graph) bool {
		total := 0
		for q := 0; q < g.N(); q++ {
			total += bits.OnesCount64(g.In(q))
		}
		if total-g.N() != g.EdgeCount() {
			t.Errorf("EdgeCount mismatch for %v", g)
		}
		return true
	})
}

func TestSortEdges(t *testing.T) {
	edges := []Edge{{2, 1}, {0, 3}, {2, 0}, {0, 1}}
	SortEdges(edges)
	want := []Edge{{0, 1}, {0, 3}, {2, 0}, {2, 1}}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("SortEdges = %v, want %v", edges, want)
		}
	}
}

// MustFromEdges is FromEdges for statically-known edge lists; it panics on
// invalid input.
func MustFromEdges(n int, edges []Edge) Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// SortEdges orders edges by (From, To); it is a convenience for tests and
// deterministic output.
func SortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
}
