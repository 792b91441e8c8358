package ptg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
//   - each shard is an open-addressing table whose keys live in one
//     append-only byte arena — interning allocates nothing per call (keys
//     are encoded into stack buffers, arena and table growth is amortized
//     geometric), unlike the previous string-keyed map that allocated a key
//     string per novel cone and a hash bucket per entry;
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

// internShard is one stripe: an open-addressing hash table (1-based indices
// into entries, 0 = empty) over keys stored back-to-back in arena.
type internShard struct {
	mu      sync.Mutex
	table   []int32
	entries []internEntry
	arena   []byte
}

// internEntry locates one interned key in the shard arena. The full hash is
// memoized so table growth and probe comparisons never re-hash or touch the
// arena for non-colliding entries. c is the stored cone's index — its ViewID
// on a plain interner.
type internEntry struct {
	hash uint64
	off  uint32
	klen uint32
	c    int32
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

// nodeKeyStackSize bounds the stack-encoded node key: owner tag plus one
// uvarint pair per child. 24 children cover every realistic process count
// without heap fallback (the uvarint pairs of small ids are 2-4 bytes, so
// even n = 64 usually fits; the cap below is on the worst case).
const nodeKeyStackSize = 2 + binary.MaxVarintLen64 + 24*2*binary.MaxVarintLen64

// Node interns the time-t view of process p whose round-t in-neighbours
// (ascending process order) have the time-(t-1) views children. The caller
// must pass children aligned with the ascending order of the in-neighbour
// set; the neighbour identities are part of the encoding via their own
// leaf/node process labels plus position, so the pair list is (q, id).
//
//topocon:allocfree
func (in *Interner) Node(p int, qs []int, children []ViewID) ViewID {
	if in.grp != nil {
		return in.orbitNode(p, qs, children)
	}
	var stack [nodeKeyStackSize]byte
	buf := stack[:0]
	if need := 2 + binary.MaxVarintLen64 + len(children)*2*binary.MaxVarintLen64; need > nodeKeyStackSize {
		buf = make([]byte, 0, need)
	}
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, 'N')
	k := binary.PutUvarint(tmp[:], uint64(p))
	buf = append(buf, tmp[:k]...)
	for i, id := range children {
		k = binary.PutUvarint(tmp[:], uint64(qs[i]))
		buf = append(buf, tmp[:k]...)
		k = binary.PutUvarint(tmp[:], uint64(id))
		buf = append(buf, tmp[:k]...)
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
//topocon:allocfree
func (in *Interner) intern(key []byte, stab uint64) int32 {
	h := hashKey(key)
	sh := &in.shards[h>>(64-6)] // top 6 bits pick one of the 64 shards
	sh.mu.Lock()
	if sh.table == nil {
		sh.table = make([]int32, internShardInitialSize)
	}
	mask := uint64(len(sh.table) - 1)
	i := h & mask
	for {
		slot := sh.table[i]
		if slot == 0 {
			break
		}
		e := &sh.entries[slot-1]
		if e.hash == h && int(e.klen) == len(key) &&
			bytes.Equal(sh.arena[e.off:e.off+e.klen], key) {
			c := e.c
			sh.mu.Unlock()
			return c
		}
		i = (i + 1) & mask
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
	sh.arena = append(sh.arena, key...)
	sh.entries = append(sh.entries, internEntry{
		hash: h, off: uint32(off), klen: uint32(len(key)), c: c,
	})
	sh.table[i] = int32(len(sh.entries))
	if uint64(len(sh.entries))*4 >= (mask+1)*3 {
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

// grow doubles the shard's probe table, re-seating entries from their
// memoized hashes. Amortized over insertions this is O(1) per intern.
func (sh *internShard) grow() {
	next := make([]int32, 2*len(sh.table))
	mask := uint64(len(next) - 1)
	for ei := range sh.entries {
		i := sh.entries[ei].hash & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = int32(ei + 1)
	}
	sh.table = next
}

// hashKey is FNV-1a over the canonical key encoding: cheap, dependency-free
// and good enough that shard selection (top bits) and probe position (low
// bits) stay decorrelated.
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
	return h
}
