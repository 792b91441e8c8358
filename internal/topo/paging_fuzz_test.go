package topo

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"topocon/internal/ma"
)

// FuzzRestoreDecomposition feeds arbitrary snapshot JSON to
// RestoreDecomposition against a small quotiented space (loss-bounded(3,1)
// under its S₃ at horizon 2): every input must yield an error or a
// decomposition that snapshots back to the JSON encoding of the decoded
// input, byte for byte — never a panic.
func FuzzRestoreDecomposition(f *testing.F) {
	ctx := context.Background()
	adv := ma.LossBounded(3, 1)
	s, err := BuildCtx(ctx, adv, 2, 2, Config{Symmetry: ma.Automorphisms(adv)})
	if err != nil {
		f.Fatal(err)
	}
	d, err := DecomposeCtx(ctx, s)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(SnapshotDecomposition(d))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := RestoreDecomposition(s, SnapshotDecomposition(d)); err != nil {
		f.Fatalf("a snapshot does not restore: %v", err)
	}
	f.Add(good)
	f.Add([]byte(`{"horizon":2,"compOf":[],"comps":[]}`))
	f.Add([]byte(`{"horizon":2,"compOf":[0],"labels":"AQ==","comps":[{"broadcasters":"0","uniformInputs":"0","stab":"3"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap DecompSnapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		want, err := json.Marshal(&snap)
		if err != nil {
			t.Fatalf("re-encoding the decoded snapshot: %v", err)
		}
		restored, err := RestoreDecomposition(s, &snap)
		if err != nil {
			return
		}
		got, err := json.Marshal(SnapshotDecomposition(restored))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore/snapshot not byte-identical:\n in  %s\n out %s", want, got)
		}
	})
}

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
