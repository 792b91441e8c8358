package ptg

import (
	"bytes"
	"testing"
)

// FuzzImportInterner feeds arbitrary bytes to ImportInterner, over seeds
// of both blob layouts (plain, and orbit-canonical with its group header):
// every input must yield an error or an interner whose Export is
// byte-identical to the input — never a panic, never a silently
// normalized blob.
func FuzzImportInterner(f *testing.F) {
	plain, _ := buildSampleInterner(f)
	orbit, _ := orbitSample(f)
	f.Add(mustExport(f, NewInterner()))
	f.Add(mustExport(f, plain))
	f.Add(mustExport(f, orbit))
	empty, err := groupInterner([][]int{{0, 1}, {1, 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mustExport(f, empty))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ImportInterner(data)
		if err != nil {
			return
		}
		if out := mustExport(t, in); !bytes.Equal(out, data) {
			t.Fatalf("import/export not byte-identical:\n in  %x\n out %x", data, out)
		}
	})
}
