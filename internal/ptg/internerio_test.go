package ptg

import (
	"bytes"
	"testing"
)

// buildSampleInterner interns a mix of leaves and nodes and returns the
// assigned IDs in insertion order.
func buildSampleInterner(t testing.TB) (*Interner, []ViewID) {
	t.Helper()
	in := NewInterner()
	var ids []ViewID
	for p := 0; p < 4; p++ {
		for x := 0; x < 3; x++ {
			ids = append(ids, in.Leaf(p, x))
		}
	}
	for p := 0; p < 4; p++ {
		ids = append(ids, in.Node(p, 1|1<<p, []ViewID{ids[0], ids[3], ids[6], ids[9]}))
		ids = append(ids, in.Node(p, 0b1111, ids[:4]))
	}
	return in, ids
}

// mustExport is Export for interners whose numbering is known dense.
func mustExport(tb testing.TB, in *Interner) []byte {
	tb.Helper()
	blob, err := in.Export()
	if err != nil {
		tb.Fatalf("Export: %v", err)
	}
	return blob
}

func TestExportImportRoundTrip(t *testing.T) {
	in, ids := buildSampleInterner(t)
	blob := mustExport(t, in)
	got, err := ImportInterner(blob)
	if err != nil {
		t.Fatalf("ImportInterner: %v", err)
	}
	if got.Size() != in.Size() {
		t.Fatalf("imported size %d, want %d", got.Size(), in.Size())
	}
	// Re-interning the same structures in the restored interner must
	// reproduce the identical IDs.
	var again []ViewID
	for p := 0; p < 4; p++ {
		for x := 0; x < 3; x++ {
			again = append(again, got.Leaf(p, x))
		}
	}
	for p := 0; p < 4; p++ {
		again = append(again, got.Node(p, 1|1<<p, []ViewID{again[0], again[3], again[6], again[9]}))
		again = append(again, got.Node(p, 0b1111, again[:4]))
	}
	if got.Size() != in.Size() {
		t.Fatalf("re-interning known views grew the interner to %d (want %d)", got.Size(), in.Size())
	}
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("id %d: imported interner assigned %d, original %d", i, again[i], ids[i])
		}
	}
}

func TestImportRejectsCorruptBlobs(t *testing.T) {
	in, _ := buildSampleInterner(t)
	blob := mustExport(t, in)
	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)-3],
		"trailing":  append(append([]byte(nil), blob...), 0xFF),
	}
	// Duplicate a key by re-emitting the whole blob body twice under a
	// doubled count — re-interning must detect the non-dense ID.
	for name, data := range cases {
		if _, err := ImportInterner(data); err == nil {
			t.Errorf("%s: import succeeded", name)
		}
	}
}

// TestImportRejectsUnproducibleKeys: a plain blob is decoded as strictly
// as an orbit-canonical one. Each case frames well and re-interns densely
// as raw bytes, but holds a key that neither Leaf nor Node produces.
func TestImportRejectsUnproducibleKeys(t *testing.T) {
	leaf0 := []byte{3, 'L', 0, 0} // Leaf(0, 0) as cone 0
	leaf1 := []byte{3, 'L', 1, 0} // Leaf(1, 0) as cone 1
	blob := func(count byte, keys ...[]byte) []byte {
		return append([]byte{count}, bytes.Join(keys, nil)...)
	}
	if _, err := ImportInterner(blob(2, leaf0, []byte{4, 'N', 0, 0, 0})); err != nil {
		t.Fatalf("control blob rejected: %v", err)
	}
	cases := map[string][]byte{
		"unknown tag and forward child": {2, 1, 'X', 4, 'N', 0, 0, 5},
		"unknown tag":                   blob(2, leaf0, []byte{3, 'X', 0, 0}),
		"child is a later cone":         blob(2, leaf0, []byte{4, 'N', 0, 0, 5}),
		"child is the cone itself":      blob(2, leaf0, []byte{4, 'N', 0, 0, 1}),
		"q descending":                  blob(3, leaf0, leaf1, []byte{6, 'N', 0, 1, 1, 0, 0}),
		"q repeated":                    blob(2, leaf0, []byte{6, 'N', 0, 0, 0, 0, 0}),
		"q past 63":                     blob(2, leaf0, []byte{4, 'N', 0, 64, 0}),
		"non-minimal q":                 blob(2, leaf0, []byte{5, 'N', 0, 0x80, 0, 0}),
		"non-minimal child":             blob(2, leaf0, []byte{5, 'N', 0, 0, 0x80, 0}),
		"non-minimal owner":             blob(1, []byte{4, 'L', 0x80, 0, 0}),
		"non-minimal leaf input":        blob(1, []byte{4, 'L', 0, 0x80, 0}),
		"leaf with a trailing byte":     blob(1, []byte{4, 'L', 0, 0, 0}),
		"leaf without an input":         blob(1, []byte{2, 'L', 0}),
		"node child without an ID":      blob(2, leaf0, []byte{3, 'N', 0, 0}),
		"node owner past 63":            blob(1, []byte{2, 'N', 64}),
		"leaf owner past 63":            blob(1, []byte{3, 'L', 64, 0}),
	}
	for name, data := range cases {
		if _, err := ImportInterner(data); err == nil {
			t.Errorf("%s: import of %x succeeded", name, data)
		}
	}
}

// TestNodeOverUnassignedChildFails: a child without an ID (-1, what a
// request past the ID cap returns) yields -1 on a plain interner, as on an
// orbit-canonical one, and stores nothing.
func TestNodeOverUnassignedChildFails(t *testing.T) {
	in := NewInterner()
	if id := in.Node(1, 0b1, []ViewID{-1}); id != -1 {
		t.Fatalf("Node over child -1 = %d, want -1", id)
	}
	if in.Size() != 0 || in.Err() != nil {
		t.Fatalf("size %d, Err %v after the refused node", in.Size(), in.Err())
	}
}

// TestInternerRefusesOwnerOutOfRange pins that Leaf, Node and Lookup store
// nothing for an owner outside the process range: past graph.MaxNodes on a
// plain interner, whose heard mask 1<<p would read 0 and whose blob
// ImportInterner would refuse, and past the group's processes on an
// orbit-canonical one, whose tables it would index out of range.
func TestInternerRefusesOwnerOutOfRange(t *testing.T) {
	plain := NewInterner()
	orbit, err := pairInterner([][]int{{0, 1, 2}, {1, 0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		in    *Interner
		owner []int
	}{
		{"plain", plain, []int{-1, 64, 70}},
		{"orbit", orbit, []int{-1, 3, 64}},
	} {
		in := tc.in
		leaf := in.Leaf(0, 1)
		row := []ViewID{leaf}
		before := in.Size()
		for _, p := range tc.owner {
			if id := in.Leaf(p, 1); id != -1 {
				t.Errorf("%s: Leaf(%d, 1) = %d, want -1", tc.name, p, id)
			}
			if id := in.Node(p, 1, row); id != -1 {
				t.Errorf("%s: Node(%d, …) = %d, want -1", tc.name, p, id)
			}
			if id := in.Lookup(p, 1, row); id != -1 {
				t.Errorf("%s: Lookup(%d, …) = %d, want -1", tc.name, p, id)
			}
		}
		if in.Size() != before || in.Err() != nil {
			t.Errorf("%s: size %d → %d, Err %v after refused owners", tc.name, before, in.Size(), in.Err())
		}
		if _, err := ImportInterner(mustExport(t, in)); err != nil {
			t.Errorf("%s: export does not import: %v", tc.name, err)
		}
	}
}
