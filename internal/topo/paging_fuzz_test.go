package topo

import (
	"bytes"
	"context"
	"testing"

	"topocon/internal/ma"
)

// FuzzFrontierPage feeds arbitrary payloads to decodeColumns against one
// round of a small chain (LossyLink2 at horizon 2): every input must yield
// an error or columns that encodeColumns writes back byte for byte — never
// a panic.
func FuzzFrontierPage(f *testing.F) {
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 2, Config{})
	if err != nil {
		f.Fatal(err)
	}
	fr := s.fr
	good := fr.encodeColumns()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte{2, 2, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		round := &frontier{horizon: fr.horizon, n: fr.n, count: fr.count, prev: fr.prev, base: fr.base}
		if round.decodeColumns(data) != nil {
			return
		}
		if out := round.encodeColumns(); !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not byte-identical:\n in  %x\n out %x", data, out)
		}
	})
}
