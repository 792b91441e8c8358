package ptg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// groupBlobMagic opens the export of an orbit-canonical interner. A plain
// export starts with its uvarint cone count, and a plain export of count 0
// is exactly the single byte 0x00, so no plain blob starts with these two
// bytes.
var groupBlobMagic = [2]byte{0x00, 'G'}

// Export serializes the interner: for an orbit-canonical interner the
// group header (groupBlobMagic, uvarint |G|, uvarint n, uvarint d — the
// size of the value domain, 0 without a value part — then per element its
// n process images and its d value images, all uvarints), and then — for
// every interner — uvarint count
// and, for each stored cone 0..count-1, its uvarint-length-prefixed
// canonical key encoding. Because stored cones are dense and numbered in
// insertion order, re-interning the exported keys in order into a fresh
// interner with the same group reproduces the identical ID assignment —
// the determinism checkpoint/resume rests on. A plain interner's export is
// unchanged by the group support.
//
// The arena holds the records in cone order, so Export walks its blocks
// once. It fails if a record is out of place or a cone below the count has
// none, which would break the dense numbering the blob rests on; intern
// never leaves such a gap, so the error is a guard, and a caller that gets
// one must not write the blob.
func (in *Interner) Export() ([]byte, error) {
	// Each arena record is its exported key plus 4 bytes, so the arena's
	// size bounds the blob's.
	size := binary.MaxVarintLen64
	for _, blk := range in.blocks {
		size += len(blk)
	}
	var buf []byte
	if g := in.grp; g != nil {
		d := g.grp.Domain()
		buf = make([]byte, 0, size+2+3*binary.MaxVarintLen64+g.m*(g.n+d))
		buf = append(buf, groupBlobMagic[:]...)
		buf = binary.AppendUvarint(buf, uint64(g.m))
		buf = binary.AppendUvarint(buf, uint64(g.n))
		buf = binary.AppendUvarint(buf, uint64(d))
		for k := 0; k < g.m; k++ {
			for _, q := range g.grp.Elem(k) {
				buf = binary.AppendUvarint(buf, uint64(q))
			}
			for _, y := range g.grp.Values(k) {
				buf = binary.AppendUvarint(buf, uint64(y))
			}
		}
	} else {
		buf = make([]byte, 0, size)
	}
	count := in.next
	buf = binary.AppendUvarint(buf, uint64(count))
	var c int32
	for _, blk := range in.blocks {
		for off := 0; off < len(blk); c++ {
			key, stored, next := recordAt(blk, off)
			if stored != c {
				return nil, fmt.Errorf("ptg: interner export: record %d holds cone %d", c, stored)
			}
			buf = binary.AppendUvarint(buf, uint64(len(key)))
			buf = append(buf, key...)
			off = next
		}
	}
	if c != count {
		return nil, fmt.Errorf("ptg: interner export: cone %d of %d has no stored key", c, count)
	}
	return buf, nil
}

// blobReader decodes an export strictly: every uvarint must be minimally
// encoded, so an accepted blob re-exports byte-identically.
type blobReader struct {
	data []byte
}

func (r *blobReader) uvarint() (uint64, bool) {
	v, k := binary.Uvarint(r.data)
	if k <= 0 || (k > 1 && r.data[k-1] == 0) {
		return 0, false
	}
	r.data = r.data[k:]
	return v, true
}

// ImportInterner rebuilds an interner from an Export payload — plain or
// orbit-canonical, as the blob says — verifying that re-interning
// reproduces the dense cone numbering exactly. Every key is decoded and
// re-interned through Leaf or Node (see importKey), so a key no interner
// produces — an unknown tag, unsorted children, a child that references
// its own or a later cone, or on an orbit-canonical import a key that is
// not the least of its orbit — is rejected. Any framing violation,
// non-minimal varint or numbering mismatch is an error; a
// partially-imported interner is never returned.
func ImportInterner(data []byte) (*Interner, error) {
	r := &blobReader{data: data}
	in := NewInterner()
	if len(data) >= 2 && data[0] == groupBlobMagic[0] && data[1] == groupBlobMagic[1] {
		r.data = data[2:]
		perms, vals, err := r.group()
		if err != nil {
			return nil, err
		}
		if len(perms) < 2 {
			return nil, errors.New("ptg: interner import: group blob of a trivial group")
		}
		grp, err := ma.NewGroup(perms, vals)
		if err == nil {
			err = in.AdoptGroup(grp)
		}
		if err != nil {
			return nil, fmt.Errorf("ptg: interner import: %w", err)
		}
	}
	count, ok := r.uvarint()
	if !ok {
		return nil, errors.New("ptg: interner import: bad count")
	}
	if count > uint64(in.maxCones()) {
		return nil, fmt.Errorf("ptg: interner import: count %d out of range", count)
	}
	for i := uint64(0); i < count; i++ {
		klen, ok := r.uvarint()
		if !ok || klen > uint64(len(r.data)) {
			return nil, fmt.Errorf("ptg: interner import: bad key length at cone %d", i)
		}
		key := r.data[:klen]
		r.data = r.data[klen:]
		if len(key) == 0 {
			return nil, fmt.Errorf("ptg: interner import: empty key at cone %d", i)
		}
		if err := in.importKey(key, int32(i)); err != nil {
			return nil, fmt.Errorf("ptg: interner import: key %d: %w", i, err)
		}
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("ptg: interner import: %d trailing bytes", len(r.data))
	}
	return in, nil
}

// group decodes the group header of an orbit-canonical export: the
// elements' process permutations and, when the header's value domain is
// not 0, their value permutations.
func (r *blobReader) group() (perms, vals [][]int, err error) {
	m, ok1 := r.uvarint()
	n, ok2 := r.uvarint()
	d, ok3 := r.uvarint()
	if !ok1 || !ok2 || !ok3 || m > ma.MaxGroupOrder || n < 1 || n > maxOrbitProcs || d > maxValueDomain {
		return nil, nil, errors.New("ptg: interner import: bad group header")
	}
	images := func(size uint64) ([]int, bool) {
		out := make([]int, size)
		for i := range out {
			q, ok := r.uvarint()
			if !ok || q >= size {
				return nil, false
			}
			out[i] = int(q)
		}
		return out, true
	}
	perms = make([][]int, m)
	if d > 0 {
		vals = make([][]int, m)
	}
	for k := range perms {
		var ok bool
		if perms[k], ok = images(n); !ok {
			return nil, nil, errors.New("ptg: interner import: bad group element")
		}
		if d == 0 {
			continue
		}
		if vals[k], ok = images(d); !ok {
			return nil, nil, errors.New("ptg: interner import: bad group element")
		}
	}
	return perms, vals, nil
}

// importKey re-interns one exported key as cone c. The key is decoded
// strictly — tag 'L' or 'N', minimal varints, an owner and every q
// inside the process range (below 64, below n on an orbit-canonical
// interner), q strictly ascending, and every child an ID the interner
// handed out before cone c — and requested through Leaf or Node. It is
// accepted only when that stores it fresh as cone c with coset label 0,
// which re-encodes it byte-identically: on an orbit-canonical interner
// this means the key is the least relabeling of its cone, and the
// stabilizer is re-derived on the way.
func (in *Interner) importKey(key []byte, c int32) error {
	g := in.grp
	m, nProcs := int32(1), uint64(graph.MaxNodes)
	if g != nil {
		m, nProcs = int32(g.m), uint64(g.n)
	}
	r := &blobReader{data: key[1:]}
	p, ok := r.uvarint()
	if !ok || p >= nProcs {
		return errors.New("bad owner")
	}
	var id ViewID
	switch key[0] {
	case 'L':
		v, k := binary.Varint(r.data)
		if k <= 0 || (k > 1 && r.data[k-1] == 0) || k != len(r.data) {
			return errors.New("bad leaf input")
		}
		id = in.Leaf(int(p), int(v))
	case 'N':
		var mask uint64
		var row [graph.MaxNodes]ViewID
		bound := uint64(c) * uint64(m)
		for len(r.data) > 0 {
			q, ok1 := r.uvarint()
			child, ok2 := r.uvarint()
			if !ok1 || !ok2 || q >= nProcs || mask>>q != 0 || child >= bound {
				return errors.New("bad child pair")
			}
			// A child ID's coset label must be the least of its coset, as
			// every ID the interner hands out is.
			if g != nil {
				cc := int32(child) / m
				if l := uint8(int32(child) - cc*m); g.cosetMin(l, in.stabs.at(cc)) != l {
					return errors.New("child ID is not canonical")
				}
			}
			mask |= 1 << q
			row[q] = ViewID(child)
		}
		id = in.Node(int(p), mask, row[:])
	default:
		return fmt.Errorf("unknown key tag %q", key[0])
	}
	if id != ViewID(c*m) {
		return fmt.Errorf("not a fresh canonical key (interned as %d, want %d)", id, c*m)
	}
	return nil
}
