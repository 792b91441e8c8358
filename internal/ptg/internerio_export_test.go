package ptg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/ma"
)

// sortedExport is the reference export: every arena record below the
// cone count, sorted by cone index, in Export's blob layout.
func sortedExport(in *Interner) []byte {
	count := in.next
	type exported struct {
		c   int32
		key []byte
	}
	var all []exported
	for _, blk := range in.blocks {
		for off := 0; off < len(blk); {
			key, c, next := recordAt(blk, off)
			if c < count {
				all = append(all, exported{c: c, key: key})
			}
			off = next
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].c < all[j].c })
	var buf []byte
	if g := in.grp; g != nil {
		buf = append(buf, groupBlobMagic[:]...)
		buf = binary.AppendUvarint(buf, uint64(g.m))
		buf = binary.AppendUvarint(buf, uint64(g.n))
		buf = binary.AppendUvarint(buf, uint64(g.grp.Domain()))
		for k := 0; k < g.m; k++ {
			for _, q := range g.grp.Elem(k) {
				buf = binary.AppendUvarint(buf, uint64(q))
			}
			for x := 0; x < g.grp.Domain(); x++ {
				buf = binary.AppendUvarint(buf, uint64(g.grp.Values(k)[x]))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(all)))
	for _, e := range all {
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		buf = append(buf, e.key...)
	}
	return buf
}

// TestExportMatchesSortedReference pins the blob against a reference that
// sorts the arena's records by cone index: plain and orbit-canonical
// interners, small and spread over several arena blocks, export
// byte-identically to it.
func TestExportMatchesSortedReference(t *testing.T) {
	plain, _ := buildSampleInterner(t)
	orbit, _ := orbitSample(t)
	rng := rand.New(rand.NewSource(5))
	big := NewInterner()
	for i := 0; i < 200; i++ {
		ComputeViews(big, runFromSeed(rng, 4, 4, 3))
	}
	adv := advgen.LossyStar4()
	bigOrbit, err := groupInterner(groupPerms(ma.Automorphisms(adv)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ComputeViews(bigOrbit, randomRun(rng, adv, 5))
	}
	// 20,000 fresh leaves fill several arena blocks.
	blocks := NewInterner()
	blocksOrbit, err := groupInterner(groupPerms(ma.Automorphisms(adv)))
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 20_000; x++ {
		blocks.Leaf(x%4, x)
		blocksOrbit.Leaf(x%4, x)
	}
	pairs := ma.Automorphisms(adv).OnDomain(2)
	bigPairs, err := pairInterner(groupPerms(pairs), groupVals(pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ComputeViews(bigPairs, randomRun(rng, adv, 5))
	}
	if len(blocks.blocks) < 3 || len(blocksOrbit.blocks) < 2 {
		t.Fatalf("20,000 leaves filled %d and %d arena blocks", len(blocks.blocks), len(blocksOrbit.blocks))
	}
	for name, in := range map[string]*Interner{
		"empty": NewInterner(), "plain": plain, "orbit": orbit, "plain-big": big, "orbit-big": bigOrbit,
		"plain-blocks": blocks, "orbit-blocks": blocksOrbit, "pairs-big": bigPairs,
	} {
		if got, want := mustExport(t, in), sortedExport(in); !bytes.Equal(got, want) {
			t.Errorf("%s: Export differs from the sorted reference (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestExportGapFails: a cone below the count with no stored key — which
// the interning protocol never produces — fails Export instead of yielding
// a blob with a hole in the dense numbering.
func TestExportGapFails(t *testing.T) {
	in, _ := buildSampleInterner(t)
	in.next++ // claim a cone and store nothing for it
	if blob, err := in.Export(); err == nil || blob != nil {
		t.Fatalf("Export over a gap returned %d bytes, err %v", len(blob), err)
	}
}
