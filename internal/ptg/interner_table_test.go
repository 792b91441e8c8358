package ptg

import (
	"math/rand"
	"testing"
)

// TestInternerProbeTable pins the probe table through growth: 200k random
// node keys push every shard's table through at least six doublings (384
// across the interner), and afterwards each key re-interns to its
// original index. The shards stay balanced, and the mean probe distance
// of a stored key stays near what linear probing gives at the tables'
// loads. The keys' child IDs are drawn from a small range, so that they
// differ mostly in their last bytes, as real view keys do: with bare
// FNV-1a, whose high bits mix those bytes poorly, homes taken from the
// tag's top bits cluster and the mean distance here reads 7.2 extra
// slots, against 0.83 with the finalizer.
func TestInternerProbeTable(t *testing.T) {
	const keys = 200_000
	in := NewInterner()
	rng := rand.New(rand.NewSource(17))
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
			k.row[q] = ViewID(rng.Intn(64))
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

	minRecs, maxRecs, extra := size, 0, 0
	for si := range in.shards {
		sh := &in.shards[si]
		if len(sh.table) < internShardInitialSize<<6 {
			t.Errorf("shard %d: table of %d slots after %d records", si, len(sh.table), sh.count)
		}
		minRecs, maxRecs = min(minRecs, sh.count), max(maxRecs, sh.count)
		shift, mask := homeShift(len(sh.table)), len(sh.table)-1
		for i, slot := range sh.table {
			if slot != 0 {
				extra += (i - int(slot>>32>>shift)) & mask
			}
		}
	}
	mean := float64(size) / internShards
	if float64(maxRecs) > 1.25*mean {
		t.Errorf("largest shard holds %d records, mean %.0f", maxRecs, mean)
	}
	dist := float64(extra) / float64(size)
	if dist > 1.25 {
		t.Errorf("mean probe distance %.3f extra slots, want ≤ 1.25", dist)
	}
	t.Logf("shards: min %d / max %d records, mean %.0f; mean probe distance %.3f", minRecs, maxRecs, mean, dist)
}
