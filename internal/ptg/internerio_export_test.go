package ptg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/ma"
)

// sortedExport is the reference export: every shard's entries below the
// cone count, sorted by cone index, in Export's blob layout.
func sortedExport(in *Interner) []byte {
	count := in.next.Load()
	type exported struct {
		c   int32
		key []byte
	}
	var all []exported
	for si := range in.shards {
		sh := &in.shards[si]
		for _, e := range sh.entries {
			if e.c < count {
				all = append(all, exported{c: e.c, key: sh.arena[e.off : e.off+e.klen]})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].c < all[j].c })
	var buf []byte
	if g := in.grp; g != nil {
		buf = append(buf, groupBlobMagic[:]...)
		buf = binary.AppendUvarint(buf, uint64(g.m))
		buf = binary.AppendUvarint(buf, uint64(g.n))
		for _, perm := range g.perms {
			for _, q := range perm {
				buf = binary.AppendUvarint(buf, uint64(q))
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

// TestExportMatchesSortedReference pins the blob across the switch from
// sorting to placing keys by dense cone index: plain and orbit-canonical
// interners, small and spread over every shard, export byte-identically
// to the sorted reference.
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
	for name, in := range map[string]*Interner{
		"empty": NewInterner(), "plain": plain, "orbit": orbit, "plain-big": big, "orbit-big": bigOrbit,
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
	in.next.Add(1) // claim a cone and store nothing for it
	if blob, err := in.Export(); err == nil || blob != nil {
		t.Fatalf("Export over a gap returned %d bytes, err %v", len(blob), err)
	}
}

// TestExportConcurrentWithInterning: exports taken while workers intern in
// parallel — plain and orbit-canonical — each import cleanly, and re-export
// byte-identically. Run it under -race.
func TestExportConcurrentWithInterning(t *testing.T) {
	adv := advgen.LossyStar4()
	orbit, err := groupInterner(groupPerms(ma.Automorphisms(adv)))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]*Interner{"plain": NewInterner(), "orbit": orbit} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 150; i++ {
					ComputeViews(in, randomRun(rng, adv, 4))
				}
			}(int64(w))
		}
		var blobs [][]byte
		for i := 0; i < 20; i++ {
			blobs = append(blobs, mustExport(t, in))
		}
		wg.Wait()
		blobs = append(blobs, mustExport(t, in))
		for i, blob := range blobs {
			got, err := ImportInterner(blob)
			if err != nil {
				t.Fatalf("%s: export %d does not import: %v", name, i, err)
			}
			if again := mustExport(t, got); !bytes.Equal(again, blob) {
				t.Fatalf("%s: export %d does not re-export byte-identically", name, i)
			}
		}
	}
}
