package ptg

import (
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
		ids = append(ids, in.Node(p, []int{0, p}, []ViewID{ids[0], ids[p*3]}))
		ids = append(ids, in.Node(p, []int{0, 1, 2, 3}, ids[:4]))
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
		again = append(again, got.Node(p, []int{0, p}, []ViewID{again[0], again[p*3]}))
		again = append(again, got.Node(p, []int{0, 1, 2, 3}, again[:4]))
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
