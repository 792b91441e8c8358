package ptg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"topocon/internal/graph"
)

// FuzzImportInterner feeds arbitrary bytes to ImportInterner, over seeds
// of both blob layouts (plain, and orbit-canonical with its group header,
// with and without a value part):
// every input must yield an error or an interner whose Export is
// byte-identical to the input — never a panic, never a silently
// normalized blob — and whose keys obey the rules of producibleKeys.
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
	pairs, err := pairInterner([][]int{{0, 1}, {1, 0}, {0, 1}, {1, 0}}, [][]int{{0, 1}, {0, 1}, {1, 0}, {1, 0}})
	if err != nil {
		f.Fatal(err)
	}
	ComputeViews(pairs, NewRun([]int{0, 1}).Extend(graph.Both))
	f.Add(mustExport(f, pairs))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ImportInterner(data)
		if err != nil {
			return
		}
		if out := mustExport(t, in); !bytes.Equal(out, data) {
			t.Fatalf("import/export not byte-identical:\n in  %x\n out %x", data, out)
		}
		if err := producibleKeys(data); err != nil {
			t.Fatalf("accepted a key no interner produces: %v\n in %x", err, data)
		}
	})
}

// producibleKeys checks, independently of the interner, that every key of
// an export blob is one Leaf or Node can produce: tag 'L' or 'N', minimal
// varints, an owner below 64 (below n on an orbit-canonical blob), a leaf
// input filling the rest of its key, node children with q strictly
// ascending and below the same bound, and each child ID below the key's
// own cone index times |G|.
func producibleKeys(blob []byte) error {
	r := &blobReader{data: blob}
	m, n := uint64(1), uint64(64)
	if bytes.HasPrefix(blob, groupBlobMagic[:]) {
		r.data = blob[2:]
		var ok1, ok2, ok3 bool
		var d uint64
		m, ok1 = r.uvarint()
		n, ok2 = r.uvarint()
		d, ok3 = r.uvarint()
		if !ok1 || !ok2 || !ok3 {
			return errors.New("bad group header")
		}
		for i := uint64(0); i < m*(n+d); i++ {
			if _, ok := r.uvarint(); !ok {
				return errors.New("bad group element")
			}
		}
	}
	count, ok := r.uvarint()
	if !ok {
		return errors.New("bad count")
	}
	for c := uint64(0); c < count; c++ {
		klen, ok := r.uvarint()
		if !ok || klen == 0 || klen > uint64(len(r.data)) {
			return fmt.Errorf("cone %d: bad key length", c)
		}
		key := &blobReader{data: r.data[1:klen]}
		tag := r.data[0]
		r.data = r.data[klen:]
		if p, ok := key.uvarint(); !ok || p >= n {
			return fmt.Errorf("cone %d: bad owner", c)
		}
		switch tag {
		case 'L':
			v, k := binary.Varint(key.data)
			if k <= 0 || k != len(key.data) || binary.PutVarint(make([]byte, binary.MaxVarintLen64), v) != k {
				return fmt.Errorf("cone %d: bad leaf input", c)
			}
		case 'N':
			last := -1
			for len(key.data) > 0 {
				q, ok1 := key.uvarint()
				child, ok2 := key.uvarint()
				if !ok1 || !ok2 || q >= n || int(q) <= last || child >= c*m {
					return fmt.Errorf("cone %d: bad child pair", c)
				}
				last = int(q)
			}
		default:
			return fmt.Errorf("cone %d: tag %q", c, tag)
		}
	}
	return nil
}
