package topo

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"testing"

	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// FuzzFrontierPage feeds arbitrary payloads to decodeIDs against one round
// of a small chain (LossyLink2 at horizon 2): every input must yield an
// error or a view column that encodeIDs writes back byte for byte — never
// a panic.
func FuzzFrontierPage(f *testing.F) {
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 2, Config{})
	if err != nil {
		f.Fatal(err)
	}
	fr := s.fr
	good := fr.encodeIDs()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte{2, 2, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		round := &frontier{horizon: fr.horizon, n: fr.n, count: fr.count, prev: fr.prev, base: fr.base}
		if round.decodeIDs(data) != nil {
			return
		}
		if out := round.encodeIDs(); !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not byte-identical:\n in  %x\n out %x", data, out)
		}
	})
}

// FuzzRestoreChain replaces one round's page of a small paged chain
// (LossyLink3 at horizon 3, quotiented by its process swap paired with
// the swap of the input values) with the fuzz input, framed with a valid
// checksum by the pager: RestoreChain must fail, or return a chain whose
// every round matches the original — view IDs, graphs, parents, roots,
// automaton states, obligations and stabilizers. checkViews requires
// every restored view to be the one its round graph gives over its
// parent's views, so a page restores only when it is the original.
func FuzzRestoreChain(f *testing.F) {
	adv := ma.LossyLink3()
	sym := ma.Automorphisms(adv)
	s, err := BuildCtx(context.Background(), adv, 2, 3, Config{Symmetry: sym})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := s.Interner.Export()
	if err != nil {
		f.Fatal(err)
	}
	want := make([]*Space, s.Horizon+1)
	for h := range want {
		if want[h], err = s.AncestorAt(h); err != nil {
			f.Fatal(err)
		}
	}
	// The first input selects the round: 0 replaces round 1's page.
	for fr := s.fr; fr.horizon > 0; fr = fr.prev {
		f.Add(uint8(fr.horizon-1), fr.encodeIDs())
	}
	for _, name := range slices.Sorted(maps.Keys(foreignRuns)) {
		f.Add(uint8(s.Horizon-1), foreignRuns[name](f, s.fr))
	}
	// The parent round's page in the head's place.
	f.Add(uint8(s.Horizon-1), s.fr.prev.encodeIDs())
	f.Fuzz(func(t *testing.T, round uint8, payload []byte) {
		target := 1 + int(round)%s.Horizon
		spec := rewriteChain(t, s, target, payload)
		in, err := ptg.ImportInterner(blob)
		if err != nil {
			t.Fatal(err)
		}
		spec.Interner = in
		got, err := RestoreChain(spec)
		if err != nil {
			return
		}
		for h, w := range want {
			g, err := got.AncestorAt(h)
			if err != nil {
				t.Fatalf("round %d replaced: AncestorAt(%d) of the restored chain: %v", target, h, err)
			}
			if err := g.fr.ensure(); err != nil {
				t.Fatal(err)
			}
			gf, wf := g.fr, w.fr
			if !slices.Equal(gf.ids, wf.ids) || !slices.Equal(gf.letter, wf.letter) ||
				!slices.Equal(gf.parentOf, wf.parentOf) || !slices.Equal(gf.rootOf, wf.rootOf) ||
				!slices.Equal(g.state, w.state) || !slices.Equal(g.doneAt, w.doneAt) || !slices.Equal(g.stab, w.stab) {
				t.Fatalf("round %d replaced: the restored chain differs from the original at horizon %d", target, h)
			}
		}
	})
}
