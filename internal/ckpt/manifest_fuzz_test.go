package ckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"topocon/internal/check"
	"topocon/internal/ma"
)

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder, over a
// manifest a real session wrote: every input must yield an error or a
// manifest whose re-encoding is byte-identical to the input — never a
// panic.
func FuzzDecodeManifest(f *testing.F) {
	dir := f.TempDir()
	pg, err := Fresh(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	a, err := check.NewAnalyzer(ma.LossyLink3(), check.WithMaxHorizon(4), check.WithPager(pg))
	if err != nil {
		f.Fatal(err)
	}
	for a.Horizon() < 3 {
		if _, err := a.Step(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	if err := Save(dir, a); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, _, _, err := decodeManifest(data); err != nil {
		f.Fatalf("a manifest Save wrote does not decode: %v", err)
	}
	f.Add(data)
	f.Add(encodeManifest("fp", 0, 0, []byte(`{}`)))
	f.Add([]byte("topocon-ckpt 8\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, blobLen, blobCRC, snap, err := decodeManifest(data)
		if err != nil {
			return
		}
		meta, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("re-encoding the session meta: %v", err)
		}
		if out := encodeManifest(fp, blobLen, blobCRC, meta); !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not byte-identical:\n in  %q\n out %q", data, out)
		}
	})
}
