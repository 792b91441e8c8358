package ptg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// groupBlobMagic opens the export of an orbit-canonical interner. A plain
// export starts with its uvarint cone count, and a plain export of count 0
// is exactly the single byte 0x00, so no plain blob starts with these two
// bytes.
var groupBlobMagic = [2]byte{0x00, 'G'}

// Export serializes the interner: for an orbit-canonical interner the
// group header (groupBlobMagic, uvarint |G|, uvarint n, then the |G|·n
// uvarint element images), and then — for every interner — uvarint count
// and, for each stored cone 0..count-1, its uvarint-length-prefixed
// canonical key encoding. Because stored cones are dense and numbered in
// insertion order, re-interning the exported keys in order into a fresh
// interner with the same group reproduces the identical ID assignment —
// the determinism checkpoint/resume rests on. A plain interner's export is
// unchanged by the group support.
//
// Export is safe to call concurrently with interning; it captures the
// cones stored before the call (cones interned concurrently may or may not
// be included, but the exported prefix is always self-consistent). It
// fails only if that prefix has a gap, which would break the dense
// numbering the blob rests on; no gap can arise (see below), so the error
// is a guard, and a caller that gets one must not write the blob.
func (in *Interner) Export() ([]byte, error) {
	// Cone indices are dense, so every key goes straight to its slot: no
	// sort. count is loaded before any shard lock is taken, and intern
	// claims c and appends c's entry under one hold of c's shard lock. The
	// load sees the claim of every c < count, so that hold began before
	// the load; the shard lock is taken below after the load, so it is
	// acquired only once the hold has ended, with c's entry appended.
	count := in.next.Load()
	keys := make([][]byte, count)
	size := binary.MaxVarintLen64
	for si := range in.shards {
		sh := &in.shards[si]
		sh.mu.Lock()
		entries := sh.entries
		arena := sh.arena
		sh.mu.Unlock()
		// entries and arena are append-only: the captured headers cover an
		// immutable prefix even if interning continues concurrently.
		for ei := range entries {
			e := &entries[ei]
			if e.c < count {
				keys[e.c] = arena[e.off : e.off+e.klen]
				size += binary.MaxVarintLen32 + int(e.klen)
			}
		}
	}
	var buf []byte
	if g := in.grp; g != nil {
		buf = make([]byte, 0, size+2+2*binary.MaxVarintLen64+g.m*g.n)
		buf = append(buf, groupBlobMagic[:]...)
		buf = binary.AppendUvarint(buf, uint64(g.m))
		buf = binary.AppendUvarint(buf, uint64(g.n))
		for _, perm := range g.perms {
			for _, q := range perm {
				buf = binary.AppendUvarint(buf, uint64(q))
			}
		}
	} else {
		buf = make([]byte, 0, size)
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for c, key := range keys {
		if len(key) == 0 {
			// Every stored key is non-empty (it starts with its tag byte),
			// so an empty slot is a cone below count with no entry.
			return nil, fmt.Errorf("ptg: interner export: cone %d of %d has no stored key", c, count)
		}
		buf = binary.AppendUvarint(buf, uint64(len(key)))
		buf = append(buf, key...)
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
// reproduces the dense cone numbering exactly. An orbit-canonical import
// re-derives every cone's canonical form and stabilizer from the imported
// keys, so a key that is not the least of its orbit, or that references a
// later cone, is rejected. Any framing violation, non-minimal varint or
// numbering mismatch is an error; a partially-imported interner is never
// returned.
func ImportInterner(data []byte) (*Interner, error) {
	r := &blobReader{data: data}
	in := NewInterner()
	if len(data) >= 2 && data[0] == groupBlobMagic[0] && data[1] == groupBlobMagic[1] {
		r.data = data[2:]
		perms, err := r.group()
		if err != nil {
			return nil, err
		}
		if len(perms) < 2 {
			return nil, errors.New("ptg: interner import: group blob of a trivial group")
		}
		if err := in.AdoptGroup(perms); err != nil {
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
		if in.grp == nil {
			if c := in.intern(key, 1); c != int32(i) {
				return nil, fmt.Errorf("ptg: interner import: key %d re-interned as cone %d (duplicate key?)", i, c)
			}
			continue
		}
		if err := in.importCanonical(key, int32(i)); err != nil {
			return nil, fmt.Errorf("ptg: interner import: key %d: %w", i, err)
		}
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("ptg: interner import: %d trailing bytes", len(r.data))
	}
	return in, nil
}

// group decodes the group header of an orbit-canonical export.
func (r *blobReader) group() ([][]int, error) {
	m, ok1 := r.uvarint()
	n, ok2 := r.uvarint()
	if !ok1 || !ok2 || m > maxGroupOrder || n < 1 || n > maxOrbitProcs {
		return nil, errors.New("ptg: interner import: bad group header")
	}
	perms := make([][]int, m)
	for k := range perms {
		perms[k] = make([]int, n)
		for p := range perms[k] {
			q, ok := r.uvarint()
			if !ok || q >= n {
				return nil, errors.New("ptg: interner import: bad group element")
			}
			perms[k][p] = int(q)
		}
	}
	return perms, nil
}

// importCanonical re-interns one key of an orbit-canonical export as cone
// c. The key is decoded strictly and requested through orbitLeaf/orbitNode;
// it is accepted only when that stores it fresh as cone c with coset label
// 0 — i.e. the key is the least relabeling of its cone, so the stored key
// is byte-identical to the imported one — and the stabilizer is re-derived
// on the way.
func (in *Interner) importCanonical(key []byte, c int32) error {
	g := in.grp
	r := &blobReader{data: key[1:]}
	p, ok := r.uvarint()
	if !ok || p >= uint64(g.n) {
		return errors.New("bad owner")
	}
	var id ViewID
	switch key[0] {
	case 'L':
		v, k := binary.Varint(r.data)
		if k <= 0 || (k > 1 && r.data[k-1] == 0) || k != len(r.data) {
			return errors.New("bad leaf input")
		}
		id = in.orbitLeaf(int(p), int(v))
	case 'N':
		var qs []int
		var children []ViewID
		bound := uint64(c) * uint64(g.m)
		for len(r.data) > 0 {
			q, ok1 := r.uvarint()
			child, ok2 := r.uvarint()
			if !ok1 || !ok2 || q >= uint64(g.n) || (len(qs) > 0 && int(q) <= qs[len(qs)-1]) || child >= bound {
				return errors.New("bad child pair")
			}
			// A child ID's coset label must be the least of its coset, as
			// every ID the interner hands out is.
			cc := int32(child) / int32(g.m)
			if l := uint8(int32(child) - cc*int32(g.m)); g.cosetMin(l, in.stabs.get(cc)) != l {
				return errors.New("child ID is not canonical")
			}
			qs = append(qs, int(q))
			children = append(children, ViewID(child))
		}
		id = in.orbitNode(int(p), qs, children)
	default:
		return fmt.Errorf("unknown key tag %q", key[0])
	}
	if id != ViewID(c*int32(g.m)) {
		return fmt.Errorf("not a fresh least relabeling (interned as %d, want %d)", id, c*int32(g.m))
	}
	return nil
}
