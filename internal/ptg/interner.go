package ptg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
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
// An Interner is safe for concurrent use and engineered for the parallel
// frontier expansion in internal/topo, where every one of the |S|·n interns
// per extended round would otherwise serialize:
//
//   - the table is split into 64 shards selected by the top bits of the key
//     hash, so workers interning unrelated cones take disjoint locks;
//   - each shard is an open-addressing table of hash-tagged slots over one
//     append-only arena of key records, so a lookup reads one slot and one
//     record — interning allocates nothing per call (keys are encoded into
//     stack buffers, arena and table growth is amortized geometric), unlike
//     the previous string-keyed map that allocated a key string per novel
//     cone and a hash bucket per entry;
//   - stored cones are numbered by one atomic counter, so IDs stay dense
//     across shards — the decomposition machinery indexes per-ViewID
//     scratch tables by IDBound().
//
// IDs are assigned in insertion order; concurrent runs may assign different
// IDs to the same cone — only equality within one Interner is meaningful.
type Interner struct {
	next   atomic.Int32
	shards [internShards]internShard
	// grp is the process permutation group the interner canonicalizes by,
	// nil for a plain interner (the trivial group). stabs[c] is the
	// stabilizer mask of stored canonical cone c. See orbit.go.
	grp   *orbitGroup
	stabs stabTable
	// limit caps the stored cones so that every ID c·|G| + ℓ fits a ViewID
	// (0 selects math.MaxInt32, the plain interner's cap); overflow records
	// that a request hit the cap (see Err).
	limit    int32
	overflow atomic.Bool
}

// internShards is the lock-striping factor. 64 shards keep the expected
// contention of even a 64-worker expansion below one waiter per lock; the
// per-shard footprint (one slice header triple + mutex) is negligible
// against the interned data itself.
const internShards = 64

// internShard is one stripe: an open-addressing probe table over an
// append-only arena of records. A record is
//
//	[uvarint key length][key bytes][stored-cone index, 4 bytes LE]
//
// and a slot packs the key's 32-bit hash tag above the record's arena
// offset + 1 (0 = empty). A probe reads the arena only when the tags match,
// and then finds the key and its cone index in the same record.
type internShard struct {
	mu    sync.Mutex
	table []uint64
	arena []byte
	count int // records in arena
}

// internShardInitialSize is the initial open-addressing table size per
// shard; must be a power of two.
const internShardInitialSize = 64

// ErrIDSpace reports that an interner ran out of ViewIDs: one more stored
// cone would push an ID c·|G| + ℓ past the int32 range.
var ErrIDSpace = errors.New("ptg: view ID space exhausted")

// NewInterner returns an empty plain interner (the trivial group).
//
//topocon:export
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
// orbit-canonical interner one per orbit, not one per ID. It is safe to
// call concurrently with interning.
func (in *Interner) Size() int {
	return int(in.next.Load())
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
	if in.overflow.Load() {
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
// on an orbit-canonical interner. key is copied into the shard arena on
// insertion; the caller's buffer is never retained, so stack-encoded keys
// do not escape. A key that would need an index past the limit is not
// stored: intern returns -1 and Err reports the overflow.
//
// The top 6 hash bits pick the shard and the low 32 are the slot tag; the
// home of a key in a 2^b-slot table is its tag's top b bits.
//
//topocon:allocfree
func (in *Interner) intern(key []byte, stab uint64) int32 {
	h := hashKey(key)
	tag := uint64(uint32(h))
	sh := &in.shards[h>>(64-6)]
	sh.mu.Lock()
	if sh.table == nil {
		sh.table = make([]uint64, internShardInitialSize)
	}
	mask := len(sh.table) - 1
	i := int(tag >> homeShift(len(sh.table)))
	for {
		slot := sh.table[i]
		if slot == 0 {
			break
		}
		if slot>>32 == tag {
			if stored, c, _ := recordAt(sh.arena, int(uint32(slot)-1)); bytes.Equal(stored, key) {
				sh.mu.Unlock()
				return c
			}
		}
		i = (i + 1) & mask
	}
	// The new record's offset + 1 must fit the slot's low 32 bits; past
	// that a shard stores nothing more, like a full ID space.
	if uint64(len(sh.arena)) >= math.MaxUint32 {
		in.overflow.Store(true)
		sh.mu.Unlock()
		return -1
	}
	c := in.claim()
	if c < 0 {
		sh.mu.Unlock()
		return -1
	}
	if in.grp != nil {
		// Recorded under the shard lock, before any caller can learn c.
		in.stabs.set(c, stab)
	}
	off := len(sh.arena)
	sh.arena = binary.AppendUvarint(sh.arena, uint64(len(key)))
	sh.arena = append(sh.arena, key...)
	sh.arena = binary.LittleEndian.AppendUint32(sh.arena, uint32(c))
	sh.table[i] = tag<<32 | uint64(off+1)
	sh.count++
	if sh.count*4 >= len(sh.table)*3 {
		sh.grow()
	}
	sh.mu.Unlock()
	return c
}

// claim draws the next stored-cone index, or returns -1 (and records the
// overflow) when the limit is reached; the counter never passes the limit,
// so IDs never wrap.
func (in *Interner) claim() int32 {
	limit := in.maxCones()
	for {
		c := in.next.Load()
		if c >= limit {
			in.overflow.Store(true)
			return -1
		}
		if in.next.CompareAndSwap(c, c+1) {
			return c
		}
	}
}

// grow doubles the shard's probe table. A slot's home is the top bits of
// its own tag, so every slot is re-seated from the table alone: no record
// is read and no key re-hashed. Amortized over insertions this is O(1) per
// intern.
func (sh *internShard) grow() {
	next := make([]uint64, 2*len(sh.table))
	shift, mask := homeShift(len(next)), len(next)-1
	for _, slot := range sh.table {
		if slot == 0 {
			continue
		}
		i := int(slot >> 32 >> shift)
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = slot
	}
	sh.table = next
}

// homeShift returns 32-b for a table of 2^b slots: a tag shifted right by
// it is the tag's top b bits, the slot's home.
func homeShift(size int) uint {
	return uint(33 - bits.Len(uint(size)))
}

// hashKey is FNV-1a over the canonical key encoding, finished with the
// 64-bit MurmurHash3 finalizer (fmix64). Both the shard (top bits) and the
// probe home (the tag's top bits) are taken from high bits, where bare
// FNV-1a is poorly mixed for short keys that differ in their last bytes.
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
