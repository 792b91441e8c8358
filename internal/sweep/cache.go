package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"topocon/internal/check"
	"topocon/internal/ma"
)

// Key identifies one unit of solvability work up to behavioural
// isomorphism: two cells with equal keys receive the same verdict, so the
// cache solves each key once.
//
// The contract (DESIGN.md §7.2):
//
//   - Fingerprint is ma.Fingerprint(adversary, depth) at depth =
//     resolved MaxHorizon. The analysis explores prefixes of at most
//     MaxHorizon rounds, and the fingerprint distinguishes exactly the
//     behaviours that differ within its depth, so behaviours merged by the
//     hash are indistinguishable to every analysis route at these options.
//   - Options is the *resolved* option set (check.Options.Resolved, with
//     the adaptive CertChainLen default additionally resolved against the
//     adversary's process count): a zero field and its effective default
//     must collide.
//   - GroupFingerprint identifies the symmetry group the session
//     quotients by (DESIGN.md §13): the fingerprint of
//     ma.Automorphisms(adv) resolved over the input domain (G × Sym(V)
//     when it fits, ma.Group.OnDomain), or the trivial group's under
//     Options.NoSymmetry. Verdicts are
//     quotient-invariant, but the group detection itself is budgeted
//     (Automorphisms falls back to trivial), so two builds of this binary
//     could in principle detect different groups for one behaviour; keying
//     on the group keeps a cached outcome attributable to the exact
//     configuration that produced it.
//   - CertEligible records whether the adversary normalizes to an
//     *ma.Oblivious (ma.Normalize): the impossibility-certificate searches
//     of the compact route run exactly for adversaries the checker
//     recognises as oblivious after normalization, so spellings such as
//     Intersect(a, Unrestricted) share the key — and the verdict — of
//     their normal form a. (For oblivious adversaries themselves the
//     searches depend only on the graph set, which any positive-depth
//     fingerprint captures — the automaton has one state.)
//
// Keys have an exported, versioned canonical byte encoding (String /
// ParseKey): the identity persistent stores address records by.
type Key struct {
	Fingerprint      string
	GroupFingerprint string
	Options          check.Options
	CertEligible     bool
}

// KeyFor computes the cache key of a scenario's work unit.
func KeyFor(adv ma.Adversary, opts check.Options) (Key, error) {
	resolved, err := opts.Resolved()
	if err != nil {
		return Key{}, err
	}
	// The chain-length default is adaptive in the process count; resolve it
	// too, so a zero field and its effective value share a key.
	resolved.CertChainLen = resolved.EffectiveCertChainLen(adv.N())
	group := ma.TrivialGroup(adv.N())
	if !resolved.NoSymmetry {
		group = ma.Automorphisms(adv).OnDomain(resolved.InputDomain)
	}
	_, oblivious := ma.Normalize(adv).(*ma.Oblivious)
	return Key{
		Fingerprint:      ma.Fingerprint(adv, resolved.MaxHorizon),
		GroupFingerprint: group.Fingerprint(),
		Options:          resolved,
		CertEligible:     oblivious,
	}, nil
}

// Outcome is the cached result of one solved key: the verdict plus the
// exploration statistics of the session that computed it. Outcomes are
// persisted by verdict stores; the JSON field names are part of the store
// record format (bump store record versions when changing them).
type Outcome struct {
	Verdict           check.Verdict `json:"verdict"`
	Exact             bool          `json:"exact"`
	SeparationHorizon int           `json:"separationHorizon"`
	Horizon           int           `json:"horizon"`
	// Runs is the size of the deepest analysed prefix space.
	Runs int `json:"runs"`
	// Notes carries analysis anomalies surfaced by the checker.
	Notes []string `json:"notes,omitempty"`
}

// HitTier attributes where a cache answer came from.
type HitTier int

const (
	// TierNone: not a hit — this caller solved the key itself.
	TierNone HitTier = iota
	// TierMemory: the key was solved earlier in this process (including
	// waiting on a concurrent in-flight solve).
	TierMemory
	// TierDisk: the key was served by the persistent backing tier — either
	// directly or from a memory entry the tier originally populated, so
	// disk attribution reflects "this verdict came from the persistent
	// corpus, not from any session of this process".
	TierDisk
)

// String renders the tier ("" for TierNone, matching report omission).
func (t HitTier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return ""
	}
}

// Tier is a backing verdict tier under the in-memory cache — typically a
// disk store (internal/store). Implementations must be safe for concurrent
// use. Get misses must be cheap; Put failures are surfaced in CacheStats
// but never fail the solve (the memory tier still holds the outcome).
type Tier interface {
	Get(Key) (Outcome, bool)
	Put(Key, Outcome) error
}

// CacheStats counts a cache's traffic by tier.
type CacheStats struct {
	// MemoryHits are answers served from keys solved in this process;
	// DiskHits are answers whose outcome originated in the backing tier;
	// Computes are leader solves (cache misses that ran an Analyzer
	// session or failed deterministically).
	MemoryHits int64 `json:"memoryHits"`
	DiskHits   int64 `json:"diskHits"`
	Computes   int64 `json:"computes"`
	// TierPutErrors counts write-behind failures of the backing tier.
	TierPutErrors int64 `json:"tierPutErrors"`
}

// cacheEntry is one in-flight or completed key. done is closed when the
// leader finishes; removed marks an entry retracted because the leader was
// cancelled (waiters retry under their own contexts). origin records which
// tier produced the outcome (TierMemory: computed here; TierDisk: loaded
// from the backing tier) and attributes later hits of the entry.
type cacheEntry struct {
	done    chan struct{}
	removed bool
	origin  HitTier
	outcome Outcome
	err     error
}

// Cache is a concurrency-safe verdict cache with in-flight deduplication
// and an optional persistent backing tier, read in the order
// memory → disk → compute. The first requester of a key resolves it
// (tier probe, then solve) while concurrent requesters of the same key
// wait for the result. Computed outcomes are written behind to the tier;
// deterministic solver errors are cached in memory only; context errors
// (cancellation, per-cell timeout) retract the entry so a later request
// retries under its own context.
type Cache struct {
	mu   sync.Mutex
	m    map[Key]*cacheEntry
	tier Tier

	memHits     atomic.Int64
	diskHits    atomic.Int64
	computes    atomic.Int64
	tierPutErrs atomic.Int64
}

// NewCache returns an empty memory-only verdict cache.
func NewCache() *Cache { return &Cache{m: make(map[Key]*cacheEntry)} }

// NewTieredCache returns an empty verdict cache backed by the tier (nil
// behaves like NewCache).
func NewTieredCache(tier Tier) *Cache {
	c := NewCache()
	c.tier = tier
	return c
}

// Len returns the number of memory-resident solved (or deterministically
// failed) keys.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the cache's tier-attributed traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		MemoryHits:    c.memHits.Load(),
		DiskHits:      c.diskHits.Load(),
		Computes:      c.computes.Load(),
		TierPutErrors: c.tierPutErrs.Load(),
	}
}

// Lookup reports the key's outcome if it is already available in memory or
// in the backing tier, without solving and without waiting on an in-flight
// solve. A tier answer is promoted into memory. The returned tier is the
// outcome's origin (TierMemory / TierDisk); deterministically failed keys
// report no outcome.
func (c *Cache) Lookup(key Key) (Outcome, HitTier, bool) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		select {
		case <-e.done:
			c.mu.Unlock()
			if e.err != nil {
				return Outcome{}, TierNone, false
			}
			return e.outcome, e.origin, true
		default:
			c.mu.Unlock()
			return Outcome{}, TierNone, false
		}
	}
	c.mu.Unlock()
	if c.tier == nil {
		return Outcome{}, TierNone, false
	}
	out, ok := c.tier.Get(key)
	if !ok {
		return Outcome{}, TierNone, false
	}
	c.promote(key, out)
	return out, TierDisk, true
}

// promote installs a tier-served outcome as a completed memory entry,
// leaving any concurrently-installed entry alone.
func (c *Cache) promote(key Key, out Outcome) {
	e := &cacheEntry{done: make(chan struct{}), origin: TierDisk, outcome: out}
	close(e.done)
	c.mu.Lock()
	if _, ok := c.m[key]; !ok {
		c.m[key] = e
	}
	c.mu.Unlock()
}

// Do returns the outcome for the key, resolving it at most once per key
// across all concurrent callers: a memory hit is served immediately, a
// backing-tier hit is promoted into memory, and only then does the caller
// solve. The returned tier attributes the answer's origin — TierMemory or
// TierDisk for hits, TierNone when this call's own solve produced it.
func (c *Cache) Do(ctx context.Context, key Key, solve func() (Outcome, error)) (out Outcome, tier HitTier, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return Outcome{}, TierNone, ctx.Err()
			}
			if e.removed {
				continue // leader was cancelled; retry under our context
			}
			c.countHit(e.origin)
			return e.outcome, e.origin, e.err
		}
		e := &cacheEntry{done: make(chan struct{}), origin: TierMemory}
		c.m[key] = e
		c.mu.Unlock()

		// Leader path: probe the backing tier before computing.
		if c.tier != nil {
			if cached, ok := c.tier.Get(key); ok {
				e.origin = TierDisk
				e.outcome = cached
				c.diskHits.Add(1)
				close(e.done)
				return e.outcome, TierDisk, nil
			}
		}

		e.outcome, e.err = solve()
		if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			// A context error is a property of this caller's budget, not of
			// the key: retract the entry so the key stays solvable.
			c.mu.Lock()
			e.removed = true
			delete(c.m, key)
			c.mu.Unlock()
			close(e.done)
			return e.outcome, TierNone, e.err
		}
		c.computes.Add(1)
		close(e.done)
		// Write-behind: persist successful outcomes after publishing the
		// memory entry, so waiters are never blocked on the disk. Failures
		// are counted, not fatal — the memory tier still serves the key.
		if e.err == nil && c.tier != nil {
			if perr := c.tier.Put(key, e.outcome); perr != nil {
				c.tierPutErrs.Add(1)
			}
		}
		return e.outcome, TierNone, e.err
	}
}

func (c *Cache) countHit(origin HitTier) {
	if origin == TierDisk {
		c.diskHits.Add(1)
	} else {
		c.memHits.Add(1)
	}
}
