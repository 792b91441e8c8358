package topo

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// keyEncodeColumns is the reference page encoder: the same layout as
// encodeColumns, with the graph dictionary deduplicated on Graph.Key.
func keyEncodeColumns(f *frontier) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(f.horizon))
	buf = binary.AppendUvarint(buf, uint64(f.n))
	buf = binary.AppendUvarint(buf, uint64(f.count))
	for _, id := range f.ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	for _, id := range f.ids {
		buf = binary.AppendUvarint(buf, f.base.interner.Heard(id))
	}
	var dict []graph.Graph
	dictIdx := map[string]int{}
	gidx := make([]int, f.count)
	for i, l := range f.letter {
		g := f.base.auto.Graph(l)
		di, ok := dictIdx[g.Key()]
		if !ok {
			di = len(dict)
			dictIdx[g.Key()] = di
			dict = append(dict, g)
		}
		gidx[i] = di
	}
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, g := range dict {
		for q := 0; q < f.n; q++ {
			buf = binary.AppendUvarint(buf, g.In(q))
		}
	}
	for _, di := range gidx {
		buf = binary.AppendUvarint(buf, uint64(di))
	}
	for _, p := range f.parentOf {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	for _, r := range f.rootOf {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// assertPageEncodings requires encodeColumns to equal the Key-based
// reference and its payload to decode into a round that re-encodes to the
// same bytes.
func assertPageEncodings(t *testing.T, name string, f *frontier) {
	t.Helper()
	got := f.encodeColumns()
	if want := keyEncodeColumns(f); !bytes.Equal(got, want) {
		t.Fatalf("%s round %d: encodeColumns differs from the Key-based reference (%d vs %d bytes)",
			name, f.horizon, len(got), len(want))
	}
	back := &frontier{horizon: f.horizon, n: f.n, count: f.count, prev: f.prev, base: f.base}
	if err := back.decodeColumns(got); err != nil {
		t.Fatalf("%s round %d: decode: %v", name, f.horizon, err)
	}
	if again := back.encodeColumns(); !bytes.Equal(again, got) {
		t.Fatalf("%s round %d: decode/encode not byte-identical", name, f.horizon)
	}
}

// TestEncodeColumnsMatchesKeyReference pins the page format across the
// encoder's dictionary rewrite: on the seed families, generated symmetric
// adversaries, a round over all 64 graphs on three nodes, and a synthetic
// 64-process round whose masks use bit 63, every page equals the Key-based
// reference byte for byte. The synthetic round's views are leaves of a
// plain interner, so its heard masks use bit 63 too.
func TestEncodeColumnsMatchesKeyReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(15))
	advs := seedAdversaries(t)
	for i := 0; i < 6; i++ {
		advs = append(advs, advgen.SymmetricOblivious(rng, 3+i%2))
	}
	var all3 []graph.Graph
	graph.EnumerateAll(3, func(g graph.Graph) bool {
		all3 = append(all3, g)
		return true
	})
	advs = append(advs, ma.MustOblivious("all-3", all3...))
	for _, adv := range advs {
		horizon := 3
		if adv.N() > 2 {
			horizon = 2
		}
		if adv.Name() == "all-3" {
			horizon = 1
		}
		s, err := BuildCtx(ctx, adv, 2, horizon, Config{})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		for f := s.fr; f.horizon > 0; f = f.prev {
			assertPageEncodings(t, adv.Name(), f)
		}
	}

	const n, count, distinct = 64, 300, 20
	pool := make([]graph.Graph, distinct)
	for i := range pool {
		masks := make([]uint64, n)
		for q := range masks {
			masks[q] = rng.Uint64() | 1<<63
		}
		g, err := graph.FromInMasks(n, masks)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = g
	}
	// The round's letters spell the pool through a table whose start state
	// offers every pool graph.
	in := ptg.NewInterner()
	var leaves []ptg.ViewID
	for p := 0; p < n; p++ {
		for x := 0; x < 8; x++ {
			leaves = append(leaves, in.Leaf(p, x))
		}
	}
	base := &frontier{n: n, count: 1, auto: ma.Compile(ma.MustOblivious("pool", pool...)), interner: in}
	base.base = base
	letters := base.auto.Row(base.auto.Start()).Letters
	f := &frontier{
		horizon: 1, n: n, count: count, prev: base, base: base,
		ids:      make([]ptg.ViewID, count*n),
		letter:   make([]int32, count),
		parentOf: make([]int32, count),
		rootOf:   make([]int32, count),
	}
	for i := range f.ids {
		f.ids[i] = leaves[rng.Intn(len(leaves))]
	}
	for i := range f.letter {
		f.letter[i] = letters[rng.Intn(distinct)]
	}
	assertPageEncodings(t, "n=64", f)
}
