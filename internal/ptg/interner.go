package ptg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
//     IDBound(), and Export relies on the order.
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
	// nil for a plain interner (the trivial group). stabs[c] is the
	// stabilizer mask of stored canonical cone c. See orbit.go.
	grp   *orbitGroup
	stabs []uint64
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

// Leaf interns the time-0 view of process p with input x.
//
//topocon:allocfree
func (in *Interner) Leaf(p, x int) ViewID {
	if in.grp != nil {
		return in.orbitLeaf(p, x)
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = 'L'
	k := 1
	k += binary.PutUvarint(buf[k:], uint64(p))
	k += binary.PutVarint(buf[k:], int64(x))
	return ViewID(in.intern(buf[:k], 1))
}

// nodeKeyStackSize is the stack buffer a node key is encoded into: owner
// tag and process plus 8 (q, child ID) pairs, each a one-byte q and an ID
// of at most 5 bytes. A wider key spills to the heap.
const nodeKeyStackSize = 1 + binary.MaxVarintLen64 + 8*(1+binary.MaxVarintLen32)

// Node interns the time-t view of process p whose round-t in-neighbours
// are the set bits q of mask, each with time-(t-1) view row[q]; row is
// indexed by process and only its masked entries are read. The key is
// 'N', p and the (q, row[q]) pairs in ascending q. A child without an ID
// (-1, from a request that hit the ID cap) yields -1.
//
//topocon:allocfree
func (in *Interner) Node(p int, mask uint64, row []ViewID) ViewID {
	if in.grp != nil {
		return in.orbitNode(p, mask, row)
	}
	var stack [nodeKeyStackSize]byte
	buf := append(stack[:0], 'N')
	buf = binary.AppendUvarint(buf, uint64(p))
	for m := mask; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		id := row[q]
		if id < 0 {
			return -1
		}
		buf = append(buf, byte(q)) // q < 64 is its own one-byte uvarint
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return ViewID(in.intern(buf, 1))
}

// intern returns the stored-cone index of key, assigning the next dense
// index on first sight and recording stab as the new cone's stabilizer mask
// on an orbit-canonical interner. key is copied into the arena on
// insertion; the caller's buffer is never retained, so stack-encoded keys
// do not escape. A key that would need an index past the limit is not
// stored: intern returns -1 and Err reports the overflow.
//
// The low 32 hash bits are the slot tag; the home of a key in a 2^b-slot
// table is its tag's top b bits.
//
//topocon:allocfree
func (in *Interner) intern(key []byte, stab uint64) int32 {
	tag := uint64(uint32(hashKey(key)))
	if in.table == nil {
		in.table = make([]uint64, internInitialSize)
	}
	mask := len(in.table) - 1
	i := int(tag >> homeShift(len(in.table)))
	for {
		slot := in.table[i]
		if slot == 0 {
			break
		}
		if slot>>32 == tag {
			if stored, c, _ := in.recordAt(uint32(slot) - 1); bytes.Equal(stored, key) {
				return c
			}
		}
		i = (i + 1) & mask
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
		return -1
	}
	c := in.next
	in.next++
	if in.grp != nil {
		in.stabs = append(in.stabs, stab)
	}
	blk := binary.AppendUvarint(in.blocks[b], uint64(len(key)))
	blk = append(blk, key...)
	in.blocks[b] = binary.LittleEndian.AppendUint32(blk, uint32(c))
	in.table[i] = tag<<32 | (loc + 1)
	if int(in.next)*4 >= len(in.table)*3 {
		in.grow()
	}
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
