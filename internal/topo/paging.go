package topo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// This file holds the out-of-core side of the frontier chain: spilling cold
// rounds' view columns through internal/pager, faulting them back in on
// chain walks, and snapshotting/restoring whole chains for checkpointed
// Analyzer sessions (internal/ckpt). See DESIGN.md §9.
//
// The design exploits that frontiers are immutable once built: a round is
// encoded and persisted the moment it stops being the head (extendOne), so
// eviction is just dropping the in-memory views — there is no write-back,
// and a fault is a checksum-verified re-read. A page holds a round's views
// and nothing else: the run links are a function of the adversary and the
// parent round, rebuilt by replay on restore and never evicted. The
// horizon-0 base is never spilled (it carries the input vectors every
// Inputs lookup needs), and the head round is never registered for
// eviction (the hot loops read its columns without faulting).

// roundPageID names the page of the frontier at the given horizon; one
// pager serves one chain, so the horizon is the identity.
func roundPageID(horizon int) string { return fmt.Sprintf("round-%03d", horizon) }

// spill persists the frontier's page and registers it with the pager,
// which may now evict the views (dropping the in-memory copy) whenever the
// hot set exceeds its budget. Idempotent; the base frontier is never spilled.
func (f *frontier) spill(pg *pager.Pager) error {
	if f.horizon == 0 || f.pg != nil {
		return nil
	}
	id := roundPageID(f.horizon)
	var err error
	if f.pageBytes > 0 {
		// A checkpoint (or the resume that restored it) already has the
		// round's page on disk: register it, do not encode it again.
		err = pg.Register(id, f.pageBytes, f.evict)
	} else {
		err = pg.Put(id, f.encodeIDs(), f.evict)
	}
	if err != nil {
		return err
	}
	f.pg = pg
	f.pageID = id
	return nil
}

// evict drops the in-memory view column; the next access faults it back
// in. Invoked by the pager (outside its lock) when the page falls out of
// the hot set. The run links (letter, parentOf, rootOf) stay resident, at
// 12 bytes per run: the page does not hold them, and only replay over the
// parent round's automaton states can rebuild them.
func (f *frontier) evict() { f.ids = nil }

// fault makes the frontier's views resident, re-reading the page from disk
// if it was evicted. The no-pager and resident fast paths are two
// compares. Chain walks under a pager are driven from one goroutine (the
// Analyzer session loop); fault is not safe for concurrent cold access.
func (f *frontier) fault() {
	if err := f.ensure(); err != nil {
		// The chain-walking accessors (HeardByAllAt, ViewsOf, …) have no
		// error returns; a page that was validated at spill/restore time and
		// is now unreadable is an environment failure, not a recoverable
		// condition. The restore path uses ensure directly and errors cleanly.
		panic(err)
	}
}

// ensure is fault with an error return, for paths that can report it.
func (f *frontier) ensure() error {
	if f.pg == nil || f.ids != nil {
		return nil
	}
	payload, err := f.pg.Fault(f.pageID, f.evict)
	if err != nil {
		return err
	}
	return f.decodeIDs(payload)
}

// encodeIDs serializes the round's page: the header (horizon, n, count)
// and the ids column, all varint-coded; framing and checksums are the
// pager's job. Everything else about a round is a function of the
// adversary and the parent round, which replay rebuilds.
func (f *frontier) encodeIDs() []byte {
	buf := make([]byte, 0, 16+len(f.ids)*3)
	buf = binary.AppendUvarint(buf, uint64(f.horizon))
	buf = binary.AppendUvarint(buf, uint64(f.n))
	buf = binary.AppendUvarint(buf, uint64(f.count))
	for _, id := range f.ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// pageDecoder reads back-to-back uvarints with strict bounds. Every uvarint
// must be minimally encoded, so an accepted payload re-encodes byte for
// byte.
type pageDecoder struct {
	data []byte
	err  error
}

func (d *pageDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.data)
	if k <= 0 || (k > 1 && d.data[k-1] == 0) {
		d.err = errors.New("topo: truncated or non-minimal varint in frontier page")
		return 0
	}
	d.data = d.data[k:]
	return v
}

// decodeIDs restores the ids column from an encodeIDs payload, validating
// the header against the frontier's immutable identity (which survives
// eviction) and every ID against the chain interner's bound. It accepts
// exactly what encodeIDs writes — minimal varints, no trailing bytes — so
// an accepted payload re-encodes byte for byte.
func (f *frontier) decodeIDs(payload []byte) error {
	d := &pageDecoder{data: payload}
	h, n, count := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err == nil && (h != uint64(f.horizon) || n != uint64(f.n) || count != uint64(f.count)) {
		return fmt.Errorf("topo: frontier page header (h=%d n=%d count=%d) does not match round (h=%d n=%d count=%d)",
			h, n, count, f.horizon, f.n, f.count)
	}
	bound := uint64(f.base.interner.IDBound())
	ids := make([]ptg.ViewID, f.count*f.n)
	for i := range ids {
		id := d.uvarint()
		if id >= bound {
			return fmt.Errorf("topo: frontier page references view %d beyond interner ID bound %d", id, bound)
		}
		ids[i] = ptg.ViewID(id)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("topo: frontier page has %d trailing bytes", len(d.data))
	}
	f.ids = ids
	return nil
}

// Pager returns the pager attached at build time, or nil.
func (s *Space) Pager() *pager.Pager { return s.pager }

// ChainRound references one persisted round of a frontier chain.
type ChainRound struct {
	Horizon int    `json:"horizon"`
	Count   int    `json:"count"`
	PageID  string `json:"pageID"`
	// Bytes is the encoded payload size, recorded so a resume can adopt the
	// page by reference without reading it.
	Bytes int64 `json:"bytes"`
}

// SnapshotChain persists every round of the space's frontier chain that is
// not yet on disk (under the Analyzer flow that is only the head — every
// older round was spilled when it stopped being the head) and returns the
// page references for horizons 1..Horizon, ascending, and the chain's row
// digest (rowDigest), which RestoreChain requires. The head stays resident
// and unregistered; already-spilled rounds are referenced without touching
// their residency.
func (s *Space) SnapshotChain() ([]ChainRound, string, error) {
	if s.pager == nil {
		return nil, "", errors.New("topo: SnapshotChain requires a pager (Config.Pager)")
	}
	rounds := make([]ChainRound, s.Horizon)
	for f := s.fr; f != nil && f.horizon > 0; f = f.prev {
		cr := ChainRound{Horizon: f.horizon, Count: f.count}
		if f.pg != nil {
			cr.PageID = f.pageID
			size, ok := s.pager.SizeOf(f.pageID)
			if !ok {
				return nil, "", fmt.Errorf("topo: SnapshotChain: round %d page %q not registered", f.horizon, f.pageID)
			}
			cr.Bytes = size
		} else {
			if err := f.ensure(); err != nil {
				return nil, "", err
			}
			payload := f.encodeIDs()
			cr.PageID = roundPageID(f.horizon)
			cr.Bytes = int64(len(payload))
			if err := s.pager.Persist(cr.PageID, payload); err != nil {
				return nil, "", err
			}
			f.pageBytes = cr.Bytes
		}
		rounds[f.horizon-1] = cr
	}
	return rounds, s.rowDigest(), nil
}

// rowDigest compiles the row of every head state, as the next extension
// would, and returns the chain's ma.Table.RowDigest, which then covers
// every state the chain reaches. Replaying the chain under the same
// adversary compiles the same rows in the same first-reach order, so the
// digest is equal; a respelling that lists some state's choices in another
// order, which would order the runs differently, digests differently.
func (s *Space) rowDigest() string {
	auto := s.fr.base.auto
	for _, st := range s.state {
		auto.Row(st)
	}
	return auto.RowDigest()
}

// ChainSpec describes a persisted frontier chain to restore.
type ChainSpec struct {
	Adversary   ma.Adversary
	InputDomain int
	MaxRuns     int // ≤ 0 selects DefaultMaxRuns
	// Interner must be the imported interner of the checkpointed session:
	// restore interns no view, so the page's ViewIDs are only meaningful
	// against the arena they were interned into.
	Interner *ptg.Interner
	// Pager owns the page directory the rounds reference.
	Pager *pager.Pager
	// Rounds are the persisted rounds, horizons 1..H ascending, and
	// RowDigest the chain's row digest (both from SnapshotChain).
	Rounds    []ChainRound
	RowDigest string
	// Symmetry must be the group the checkpointed session was quotiented
	// by (nil or the trivial group for a full-space session), as in
	// Config.Symmetry: an open value part is resolved over InputDomain. The Interner must be orbit-canonical under it
	// (the imported blob carries the group), so restoring a quotiented
	// chain without its group, or a full-space chain with one, fails on
	// the interner. The stabilizer column is derived state — never
	// serialized, the page format is symmetry-agnostic — so restore
	// recomputes it by the same recurrence the original extension applied.
	Symmetry *ma.Group
}

// RestoreChain rebuilds the frontier chain of a checkpointed session and
// returns the space at the deepest horizon, ready to Extend further.
//
// A page holds only its round's views. Round by round, every page is read
// and checksum-verified exactly once, and replay derives everything else —
// run links, automaton states, obligations and stabilizers — from the
// restored parent round; the round must hold exactly its parents'
// children. Every view is then checked to be exactly the view its run's
// round graph gives over its parent's views (checkViews), and the chain's rows against the snapshot's RowDigest, so
// a respelled adversary that would put valid views onto the wrong runs
// fails here. A parent round is registered with the pager and evicted once
// its child has been checked, so restore memory stays at ~two rounds of
// views plus the run links and one state column regardless of depth, and
// a corrupt page surfaces here as a clean error, never as a wrong resume.
//
//topocon:allow ctxflow -- pre-context bootstrap path behind ckpt.Load/RestoreAnalyzer; work is bounded by the already-checkpointed chain, with no external waits to cancel
func RestoreChain(spec ChainSpec) (*Space, error) {
	if spec.Adversary == nil || spec.Interner == nil || spec.Pager == nil {
		return nil, errors.New("topo: RestoreChain: adversary, interner and pager are required")
	}
	maxRuns := spec.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRuns
	}
	adv := spec.Adversary
	s, err := buildBaseSym(adv, spec.InputDomain, spec.Interner, maxRuns, spec.Symmetry)
	if err != nil {
		return nil, fmt.Errorf("topo: RestoreChain: %w", err)
	}
	s.pager = spec.Pager
	order := ptg.ViewID(spec.Interner.GroupOrder())
	for ri, cr := range spec.Rounds {
		if cr.Horizon != ri+1 {
			return nil, fmt.Errorf("topo: RestoreChain: round %d has horizon %d, want %d", ri, cr.Horizon, ri+1)
		}
		if cr.Count <= 0 || cr.Count > maxRuns {
			return nil, fmt.Errorf("topo: RestoreChain: round %d count %d out of range", cr.Horizon, cr.Count)
		}
		payload, err := spec.Pager.ReadPage(cr.PageID)
		if err != nil {
			return nil, err
		}
		f := &frontier{
			horizon: cr.Horizon,
			n:       adv.N(),
			count:   cr.Count,
			prev:    s.fr,
			base:    s.fr.base,
		}
		if err := f.decodeIDs(payload); err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d: %w", cr.Horizon, err)
		}
		lo, hi := slices.Min(f.ids), slices.Max(f.ids)
		// The round's cone range, whole orbits from its least to its
		// greatest view: what the original extension recorded, since a
		// round stores only views of its own depth.
		f.idLo, f.idHi = int(lo/order*order), int((hi/order+1)*order)
		next, err := s.replay(f)
		if err == nil {
			err = f.checkViews()
		}
		if err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: %w", err)
		}
		if ri > 0 {
			// The parent round is validated and replayed against: register
			// it cold and drop its views; walks fault them back on demand.
			// The deepest round stays resident as the new head.
			prev, pr := s.fr, spec.Rounds[ri-1]
			if err := spec.Pager.Adopt(pr.PageID, pr.Bytes, prev.evict); err != nil {
				return nil, err
			}
			prev.pg = spec.Pager
			prev.pageID = pr.PageID
			prev.evict()
		}
		f.pageBytes = int64(len(payload)) // the round's page is on disk already
		s = next
	}
	if got := s.rowDigest(); got != spec.RowDigest {
		return nil, fmt.Errorf("topo: RestoreChain: the adversary compiles row digest %.16s, the chain was built under %.16s",
			got, spec.RowDigest)
	}
	return s, nil
}

// replay returns the space over f, the round after s's in its chain. A
// round stores no run links, automaton states, obligations or
// stabilizers; replay derives them from s's by extendOne's recurrences:
// the runs are the children of s's runs in parent order, each parent's in
// its compiled row's order with relabeled twins dropped, each with its
// parent's root. A round restored from its page takes the derived links; a
// round that has them (AncestorAt) keeps its own, which are the same. The
// round must hold exactly as many runs as s's runs have children. View IDs
// are not read: checkViews verifies them on restore.
func (s *Space) replay(f *frontier) (*Space, error) {
	pRoot := s.fr.rootOf
	auto, grp := s.fr.base.auto, s.sym
	letter := make([]int32, 0, f.count)
	parentOf := make([]int32, 0, f.count)
	rootOf := make([]int32, 0, f.count)
	state := make([]int32, 0, f.count)
	doneAt := make([]int32, 0, f.count)
	stab := make([]uint64, 0, f.count)
	for i, pst := range s.state {
		row := auto.Row(pst)
		for j, l := range row.Letters {
			cStab := uint64(1)
			if s.stab[i] != 1 {
				if cStab = graphOrbitStab(auto.Graph(l), grp, s.stab[i]); cStab == 0 {
					continue // a relabeled twin of an earlier sibling
				}
			}
			st, da := row.Next[j], s.doneAt[i]
			if da < 0 && auto.Done(st) {
				da = int32(f.horizon)
			}
			letter = append(letter, l)
			parentOf = append(parentOf, int32(i))
			rootOf = append(rootOf, pRoot[i])
			state = append(state, st)
			doneAt = append(doneAt, da)
			stab = append(stab, cStab)
		}
	}
	if len(state) != f.count {
		return nil, fmt.Errorf("round %d holds %d runs, its parents have %d children", f.horizon, f.count, len(state))
	}
	if f.letter == nil {
		f.letter, f.parentOf, f.rootOf = letter, parentOf, rootOf
	}
	return s.atRound(f, state, doneAt, stab), nil
}

// checkViews verifies round f's views against the run links replay
// derived: the view of process p in run c must be exactly the view the
// interner holds for p's in-neighbourhood in the run's round graph over
// the parent run's view row — Interner.Lookup builds Node's key (the
// orbit-canonical one under a group) and stores nothing. The base round's
// views are leaves interned from the inputs, so, round by round, every
// restored view is the one extension gave its run: a page that swaps the
// views of two runs, even runs playing the same graph from different
// parents, fails here. Siblings share most in-masks, so each parent's
// answers are kept in extendOne's in-mask memo (DESIGN.md §5.1). f's and
// its parent's views must be resident.
func (f *frontier) checkViews() error {
	in, auto, pf, n := f.base.interner, f.base.auto, f.prev, f.n
	sc := extendScratchPool.Get().(*extendScratch)
	defer extendScratchPool.Put(sc)
	sc.acquire(n, memoWidth, 0)
	last := int32(-1)
	for c, i := range f.parentOf {
		if i != last {
			sc.nextParent()
			last = i
		}
		parent := pf.idRow(int(i))
		g := auto.Graph(f.letter[c])
		for p, id := range f.idRow(c) {
			mask := g.In(p)
			want, ok := sc.memo(p, mask)
			if !ok {
				want = in.Lookup(p, mask, parent)
				sc.remember(p, mask, want)
			}
			if id != want {
				return fmt.Errorf("round %d run %d process %d: view %d, its round graph gives view %d over its parent's views",
					f.horizon, c, p, id, want)
			}
		}
	}
	return nil
}

// atRound returns the space over round f of s's chain with the given
// per-run columns.
func (s *Space) atRound(f *frontier, state, doneAt []int32, stab []uint64) *Space {
	return &Space{
		Adversary:   s.Adversary,
		InputDomain: s.InputDomain,
		Horizon:     f.horizon,
		Interner:    s.Interner,
		fr:          f,
		state:       state,
		doneAt:      doneAt,
		maxRuns:     s.maxRuns,
		pager:       s.pager,
		sym:         s.sym,
		stab:        stab,
	}
}

// AncestorAt materializes the space at an earlier horizon t of the chain:
// it replays the rounds from the base to t (replay), since states are
// per-space, not per-frontier. Replay reads only the resident run links, so
// no page is faulted. It is the path behind check.Analyzer.SpaceAt for
// horizons other than the head and the separation horizon; a cold
// reporting/debugging operation, O(chain) table lookups.
func (s *Space) AncestorAt(t int) (*Space, error) {
	if t == s.Horizon {
		return s, nil
	}
	if t < 0 || t > s.Horizon {
		return nil, fmt.Errorf("topo: AncestorAt(%d) outside chain of horizon %d", t, s.Horizon)
	}
	// Collect the path target..base, then replay forward.
	path := make([]*frontier, 0, t+1)
	for f := s.fr; f != nil; f = f.prev {
		if f.horizon <= t {
			path = append(path, f)
		}
	}
	base := path[len(path)-1]
	state, doneAt, stab := baseColumns(base, s.sym)
	cur := s.atRound(base, state, doneAt, stab)
	for ri := len(path) - 2; ri >= 0; ri-- {
		next, err := cur.replay(path[ri])
		if err != nil {
			return nil, fmt.Errorf("topo: AncestorAt(%d): %w", t, err)
		}
		cur = next
	}
	return cur, nil
}
