package ptg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"topocon/internal/graph"
)

// ViewID identifies a hash-consed causal cone. Two views (possibly from
// different runs) are equal as process-time sub-DAGs if and only if their
// ViewIDs from the same Interner are equal.
//
// On an orbit-canonical interner (see AdoptGroup) an ID also says where
// the cone sits in its orbit: ID = c·|G| + ℓ, where c indexes the stored
// canonical cone of the orbit and ℓ is the least group element that maps
// that cone to this one (see orbit.go).
type ViewID int32

// Interner hash-conses causal cones. All runs that are to be compared must
// share one Interner; the prefix-space machinery in internal/topo owns one
// per space.
//
// The recursive encoding is collision-free by construction (it is a
// canonical serialization, not a hash): a leaf encodes (process, input
// value); an inner node encodes (process, sorted child (q, ViewID) pairs).
// By induction on round number, equal encodings imply equal cones: the
// unfolding of a cone determines the cone, because the in-neighbourhood of
// every cone node within the cone appears at each of its occurrences.
//
// An Interner belongs to one analysis session and is not safe for
// concurrent use: a session extends its prefix space on one goroutine, and
// everything that reads or grows its interner — extension, decomposition,
// decision maps, the simulator's view reconstruction and checkpoint saves
// from the progress hook — runs on that goroutine. Concurrent sessions
// each own their interner. Interning allocates nothing per call beyond
// amortized growth:
//
//   - one open-addressing table of hash-tagged slots points into an arena
//     of key records, so a lookup reads one slot and one record, and keys
//     are encoded into stack buffers;
//   - the arena is a list of fixed-size blocks, so once past its first
//     block it grows without copying the records stored so far;
//   - stored cones are numbered densely in insertion order — the
//     decomposition machinery indexes per-ViewID scratch tables by
//     IDBound(), and Export relies on the order;
//   - each stored cone carries its heard mask, set when it is stored,
//     so a view's heard set is read from its ID (Heard).
type Interner struct {
	// table is the probe table; a slot packs the key's 32-bit hash tag
	// above its record's location + 1 (0 = empty), where a location is
	// block·internBlockSize + offset.
	table []uint64
	// blocks hold the records, appended whole in insertion order, so in
	// cone order:
	//
	//	[uvarint key length][key bytes][stored-cone index, 4 bytes LE]
	//
	// A record never straddles two blocks, and records go to the last
	// block only. The first block starts small and grows to
	// internBlockSize; every later one is allocated at that size.
	blocks [][]byte
	next   int32
	// grp is the process permutation group the interner canonicalizes by,
	// nil for a plain interner (the trivial group). stabs.at(c) is the
	// stabilizer mask of stored canonical cone c. See orbit.go.
	grp   *orbitGroup
	stabs coneWords
	// heard.at(c) is the heard mask of stored cone c: the set of processes
	// q whose leaf lies in the cone. It is set once, when the cone is
	// stored, from the key's own owner or children, so it can never
	// disagree with the key. See Heard.
	heard coneWords
	// limit caps the stored cones so that every ID c·|G| + ℓ fits a ViewID
	// (0 selects math.MaxInt32, the plain interner's cap); overflow records
	// that a request hit the cap (see Err).
	limit    int32
	overflow bool
}

// internBlockBits sizes the arena blocks (64 KiB). A record is at most a
// few hundred bytes: Leaf and Node build every key, and a node key holds at
// most graph.MaxNodes child pairs.
const (
	internBlockBits = 16
	internBlockSize = 1 << internBlockBits
)

// internInitialSize is the initial probe table size; a power of two.
const internInitialSize = 256

// ErrIDSpace reports that an interner ran out of ViewIDs: one more stored
// cone would push an ID c·|G| + ℓ past the int32 range.
var ErrIDSpace = errors.New("ptg: view ID space exhausted")

// NewInterner returns an empty plain interner (the trivial group).
func NewInterner() *Interner {
	return &Interner{}
}

// maxCones returns the stored-cone cap.
func (in *Interner) maxCones() int32 {
	if in.limit == 0 {
		return math.MaxInt32
	}
	return in.limit
}

// Size returns the number of distinct cones stored so far — on an
// orbit-canonical interner one per orbit, not one per ID.
func (in *Interner) Size() int {
	return int(in.next)
}

// IDBound returns an exclusive upper bound of every ViewID assigned before
// the call: Size() on a plain interner, Size()·|G| on an orbit-canonical
// one. Dense per-ViewID tables size themselves by it.
func (in *Interner) IDBound() int {
	return in.Size() * in.GroupOrder()
}

// Err returns ErrIDSpace once some Leaf or Node request could not be
// assigned an ID (and returned -1 instead); nil otherwise. Callers that
// intern in bulk check it once after the batch, like a size cap.
func (in *Interner) Err() error {
	if in.overflow {
		return fmt.Errorf("%w: more than %d stored cones at group order %d", ErrIDSpace, in.maxCones(), in.GroupOrder())
	}
	return nil
}

// Leaf interns the time-0 view of process p with input x. An owner p
// outside the process range — 0..graph.MaxNodes-1, or the group's
// processes on an orbit-canonical interner — yields -1 and stores nothing.
//
//topocon:allocfree
func (in *Interner) Leaf(p, x int) ViewID {
	if in.grp != nil {
		return in.orbitLeaf(p, x)
	}
	if uint(p) >= graph.MaxNodes {
		return -1
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = 'L'
	k := 1
	k += binary.PutUvarint(buf[k:], uint64(p))
	k += binary.PutVarint(buf[k:], int64(x))
	c, fresh := in.intern(buf[:k])
	if fresh {
		in.heard.add(1 << uint(p))
	}
	return ViewID(c)
}

// nodeKeyStackSize is the stack buffer a node key is encoded into: owner
// tag and process plus 8 (q, child ID) pairs, each a one-byte q and an ID
// of at most 5 bytes. A wider key spills to the heap.
const nodeKeyStackSize = 1 + binary.MaxVarintLen64 + 8*(1+binary.MaxVarintLen32)

// Node interns the time-t view of process p whose round-t in-neighbours
// are the set bits q of mask, each with time-(t-1) view row[q]; row is
// indexed by process and only its masked entries are read. Every masked
// child must be an ID this interner handed out, or -1: a child without an
// ID (from a request that hit the ID cap) yields -1, and so does an owner
// Leaf would refuse. The key is 'N', p and the (q, row[q]) pairs in
// ascending q.
//
//topocon:allocfree
func (in *Interner) Node(p int, mask uint64, row []ViewID) ViewID {
	if in.grp != nil {
		return in.orbitNode(p, mask, row)
	}
	var stack [nodeKeyStackSize]byte
	buf, ok := plainNodeKey(stack[:0], p, mask, row)
	if !ok {
		return -1
	}
	c, fresh := in.intern(buf)
	if fresh {
		var h uint64
		for m := mask; m != 0; m &= m - 1 {
			h |= in.heard.at(int32(row[bits.TrailingZeros64(m)]))
		}
		in.heard.add(h)
	}
	return ViewID(c)
}

// plainNodeKey appends the plain key of Node's request to buf; ok is false
// when a masked child has no ID or the owner is out of range.
//
//topocon:allocfree
func plainNodeKey(buf []byte, p int, mask uint64, row []ViewID) (key []byte, ok bool) {
	if uint(p) >= graph.MaxNodes {
		return buf, false
	}
	buf = append(buf, 'N')
	buf = binary.AppendUvarint(buf, uint64(p))
	for m := mask; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		id := row[q]
		if id < 0 {
			return buf, false
		}
		buf = append(buf, byte(q)) // q < 64 is its own one-byte uvarint
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf, true
}

// Lookup returns the ID Node would return for the same request when that
// view is already stored, and -1 when it is not: it builds the same key
// (orbitNodeKey's under a group) but stores nothing, so it never grows
// the interner or sets Err. Every masked child must be an ID this
// interner handed out; a child of -1 yields -1.
//
//topocon:allocfree
func (in *Interner) Lookup(p int, mask uint64, row []ViewID) ViewID {
	var stack [nodeKeyStackSize]byte
	g := in.grp
	if g == nil {
		key, ok := plainNodeKey(stack[:0], p, mask, row)
		if !ok {
			return -1
		}
		return ViewID(in.find(key))
	}
	var kids orbitKids
	key, arg, ok := in.orbitNodeKey(stack[:0], p, mask, row, &kids)
	if !ok {
		return -1
	}
	c := in.find(key)
	if c < 0 {
		return -1
	}
	_, l := g.orbitLabel(arg, bits.TrailingZeros64(arg))
	return ViewID(c*int32(g.m) + int32(l))
}

// Heard returns the heard mask of view id: bit q is set iff process q's
// leaf lies in the cone, that is, iff the view's owner has heard q. The ID
// must come from this interner. On an orbit-canonical interner the stored
// mask is the canonical cone's, relabeled here by the ID's coset label.
//
//topocon:allocfree
func (in *Interner) Heard(id ViewID) uint64 {
	g := in.grp
	if g == nil {
		return in.heard.at(int32(id))
	}
	m := int32(g.m)
	c := int32(id) / m
	return g.permuteMask(in.heard.at(c), int(int32(id)-c*m))
}

// coneWords is a column of one 64-bit word per stored cone — a
// stabilizer or heard mask — read by cone index. Like the arena it is a
// list of chunks: the first grows to coneChunkSize words and every later
// one is allocated whole, so a small interner stays small and growth never
// copies the words stored so far; a doubling slice copies every word at
// each doubling, which cost about 3 % of star-quotient's CPU profile for
// the stabilizers alone.
type coneWords [][]uint64

// coneChunkBits sizes the chunks (8192 words, 64 KiB).
const (
	coneChunkBits = 13
	coneChunkSize = 1 << coneChunkBits
)

// at returns the word of cone c.
func (w coneWords) at(c int32) uint64 {
	return w[c>>coneChunkBits][c&(coneChunkSize-1)]
}

// add appends the word of the next cone.
func (w *coneWords) add(v uint64) {
	k := len(*w) - 1
	if k < 0 || len((*w)[k]) == coneChunkSize {
		var chunk []uint64
		if k >= 0 {
			chunk = make([]uint64, 0, coneChunkSize)
		}
		*w = append(*w, chunk)
		k++
	}
	(*w)[k] = append((*w)[k], v)
}

// intern returns the stored-cone index of key, assigning the next dense
// index on first sight, and reports whether it stored key just now; the
// caller then adds the new cone's heard mask (and, on an orbit-canonical
// interner, its stabilizer mask), so both columns stay indexed by cone.
// key is copied into the arena on insertion; the caller's buffer is never
// retained, so stack-encoded keys do not escape. A key that would need an
// index past the limit is not stored: intern returns -1 and Err reports
// the overflow.
//
// The low 32 hash bits are the slot tag; the home of a key in a 2^b-slot
// table is its tag's top b bits.
//
//topocon:allocfree
func (in *Interner) intern(key []byte) (c int32, fresh bool) {
	if in.table == nil {
		in.table = make([]uint64, internInitialSize)
	}
	tag := uint64(uint32(hashKey(key)))
	c, i := in.probe(key, tag)
	if c >= 0 {
		return c, false
	}
	// The record goes to the last block, or to a new one when it does not
	// fit. Its location + 1 must fit the slot's low 32 bits; past that the
	// interner stores nothing more, like a full ID space.
	need := binary.MaxVarintLen16 + len(key) + 4
	b := len(in.blocks) - 1
	if b < 0 || len(in.blocks[b])+need > internBlockSize {
		var blk []byte
		if b >= 0 {
			blk = make([]byte, 0, internBlockSize)
		}
		in.blocks = append(in.blocks, blk)
		b++
	}
	loc := uint64(b)<<internBlockBits + uint64(len(in.blocks[b]))
	if loc >= math.MaxUint32 || in.next >= in.maxCones() {
		in.overflow = true
		return -1, false
	}
	c = in.next
	in.next++
	blk := binary.AppendUvarint(in.blocks[b], uint64(len(key)))
	blk = append(blk, key...)
	in.blocks[b] = binary.LittleEndian.AppendUint32(blk, uint32(c))
	in.table[i] = tag<<32 | (loc + 1)
	if int(in.next)*4 >= len(in.table)*3 {
		in.grow()
	}
	return c, true
}

// probe looks key, with hash tag tag, up in the probe table: it returns
// the key's stored-cone index and slot, or -1 and the empty slot where the
// key would go. The table must exist.
//
//topocon:allocfree
func (in *Interner) probe(key []byte, tag uint64) (c int32, slot int) {
	mask := len(in.table) - 1
	i := int(tag >> homeShift(len(in.table)))
	for {
		s := in.table[i]
		if s == 0 {
			return -1, i
		}
		if s>>32 == tag {
			if stored, c, _ := in.recordAt(uint32(s) - 1); bytes.Equal(stored, key) {
				return c, i
			}
		}
		i = (i + 1) & mask
	}
}

// find returns the stored-cone index of key, or -1 when it is not stored.
//
//topocon:allocfree
func (in *Interner) find(key []byte) int32 {
	if in.table == nil {
		return -1
	}
	c, _ := in.probe(key, uint64(uint32(hashKey(key))))
	return c
}

// recordAt decodes the record at arena location loc: its key, its
// stored-cone index and the offset of the next record in its block.
func (in *Interner) recordAt(loc uint32) (key []byte, c int32, next int) {
	return recordAt(in.blocks[loc>>internBlockBits], int(loc&(internBlockSize-1)))
}

// recordAt decodes the record of blk at off (see Interner.blocks).
func recordAt(blk []byte, off int) (key []byte, c int32, next int) {
	klen, k := binary.Uvarint(blk[off:])
	start := off + k
	end := start + int(klen)
	return blk[start:end], int32(binary.LittleEndian.Uint32(blk[end:])), end + 4
}

// grow doubles the probe table. A slot's home is the top bits of its own
// tag, so every slot is re-seated from the table alone: no record is read
// and no key re-hashed. Amortized over insertions this is O(1) per intern.
func (in *Interner) grow() {
	next := make([]uint64, 2*len(in.table))
	shift, mask := homeShift(len(next)), len(next)-1
	for _, slot := range in.table {
		if slot == 0 {
			continue
		}
		i := int(slot >> 32 >> shift)
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = slot
	}
	in.table = next
}

// homeShift returns 32-b for a table of 2^b slots: a tag shifted right by
// it is the tag's top b bits, the slot's home.
func homeShift(size int) uint {
	return uint(33 - bits.Len(uint(size)))
}

// hashKey is FNV-1a over the canonical key encoding, finished with the
// 64-bit MurmurHash3 finalizer (fmix64). The probe home is taken from the
// tag's top bits, where bare FNV-1a is poorly mixed for short keys that
// differ in their last bytes.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
