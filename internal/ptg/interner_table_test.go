package ptg

import (
	"math/rand"
	"testing"
)

// TestInternerProbeTable pins the probe table through growth: 166k random
// node keys push the table through ten doublings to 262,144 slots, and
// afterwards each key re-interns to its original index. The mean probe
// distance of a stored key stays near what linear probing gives at the
// table's load: about 163k records fill the table to 0.62, below its 3/4
// growth point, where a well-mixed home gives ½·α/(1−α) ≈ 0.83 extra
// slots. The keys' child IDs are drawn from a small range of leaves
// interned first, so that they differ mostly in their last bytes, as real
// view keys do: with bare FNV-1a, whose high bits mix those bytes poorly,
// homes taken from the tag's top bits cluster and the mean distance here
// reads 8.2 extra slots, against 0.83 with the finalizer.
func TestInternerProbeTable(t *testing.T) {
	const keys = 166_000
	in := NewInterner()
	rng := rand.New(rand.NewSource(17))
	const children = 64
	for x := 0; x < children; x++ {
		if id := in.Leaf(0, x); id != ViewID(x) {
			t.Fatalf("leaf %d interned as %d", x, id)
		}
	}
	type nodeKey struct {
		p    int
		mask uint64
		row  [8]ViewID
		id   ViewID
	}
	nodes := make([]nodeKey, keys)
	for i := range nodes {
		k := &nodes[i]
		k.p, k.mask = rng.Intn(8), uint64(1+rng.Intn(255))
		for q := range k.row {
			k.row[q] = ViewID(rng.Intn(children))
		}
		k.id = in.Node(k.p, k.mask, k.row[:])
	}
	size := in.Size()
	if size < keys*95/100 {
		t.Fatalf("only %d distinct keys of %d", size, keys)
	}
	for i := range nodes {
		k := &nodes[i]
		if id := in.Node(k.p, k.mask, k.row[:]); id != k.id {
			t.Fatalf("key %d re-interned as %d, was %d", i, id, k.id)
		}
	}
	if in.Size() != size || in.Err() != nil {
		t.Fatalf("re-interning grew the interner from %d to %d (Err %v)", size, in.Size(), in.Err())
	}

	if len(in.table) != internInitialSize<<10 || size*5 < len(in.table)*3 {
		t.Fatalf("table of %d slots after %d records, want %d slots at load 0.6 or more",
			len(in.table), size, internInitialSize<<10)
	}
	extra := 0
	shift, mask := homeShift(len(in.table)), len(in.table)-1
	for i, slot := range in.table {
		if slot != 0 {
			extra += (i - int(slot>>32>>shift)) & mask
		}
	}
	dist := float64(extra) / float64(size)
	if dist > 1.25 {
		t.Errorf("mean probe distance %.3f extra slots, want ≤ 1.25", dist)
	}
	t.Logf("%d records in %d slots; mean probe distance %.3f", size, len(in.table), dist)
}
