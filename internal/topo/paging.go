package topo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// This file holds the out-of-core side of the frontier chain: spilling cold
// rounds' column arrays through internal/pager, faulting them back in on
// chain walks, and snapshotting/restoring whole chains for checkpointed
// Analyzer sessions (internal/ckpt). See DESIGN.md §9.
//
// The design exploits that frontiers are immutable once built: a round is
// encoded and persisted the moment it stops being the head (extendOne), so
// eviction is just dropping the in-memory columns — there is no write-back,
// and a fault is a checksum-verified re-read. The horizon-0 base is never
// spilled (it carries the input vectors every Inputs lookup needs), and the
// head round is never registered for eviction (the hot loops read its
// columns without faulting).

// roundPageID names the page of the frontier at the given horizon; one
// pager serves one chain, so the horizon is the identity.
func roundPageID(horizon int) string { return fmt.Sprintf("round-%03d", horizon) }

// spill persists the frontier's columns and registers them with the pager,
// which may now evict them (dropping the in-memory copy) whenever the hot
// set exceeds its budget. Idempotent; the base frontier is never spilled.
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
		err = pg.Put(id, f.encodeColumns(), f.evict)
	}
	if err != nil {
		return err
	}
	f.pg = pg
	f.pageID = id
	return nil
}

// evict drops the in-memory columns; the next access faults them back in.
// Invoked by the pager (outside its lock) when the page falls out of the
// hot set.
func (f *frontier) evict() {
	f.ids, f.letter, f.parentOf, f.rootOf = nil, nil, nil, nil
}

// fault makes the frontier's columns resident, re-reading the page from
// disk if it was evicted. The no-pager and resident fast paths are two
// compares. Chain walks under a pager are driven from one goroutine (the
// Analyzer session loop); fault is not safe for concurrent cold access.
func (f *frontier) fault() {
	if err := f.ensure(); err != nil {
		// The chain-walking accessors (HeardByAllAt, ViewsOf, RunOf, …) have
		// no error returns; a page that was validated at spill/restore time
		// and is now unreadable is an environment failure, not a recoverable
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
	return f.decodeColumns(payload)
}

// encodeColumns serializes the round's columns: header (horizon, n, count),
// ids, the heard mask of every view, a deduplicated round-graph dictionary
// plus per-item indices (one round's graphs come from a small Choices
// menu, so the dictionary keeps pages small), parentOf and rootOf. The
// dictionary lists graphs in order of first occurrence. All integers are
// varint-coded; framing and checksums are the pager's job.
//
// The round keeps no heard column: the page's is derived from the views
// through the chain's interner, and decodeColumns checks it against the
// same.
//
// Pages hold graphs, not letters: letters number the graphs of one
// session's compiled adversary, while a checkpoint may be resumed by any
// adversary with the same ma.Fingerprint, whose Choices may list them in
// another order. The dictionary is built from the letters through a
// per-letter array, so the cost is linear in the bytes written.
func (f *frontier) encodeColumns() []byte {
	n, count := f.n, f.count
	buf := make([]byte, 0, 16+count*(2*n+3)*2)
	buf = binary.AppendUvarint(buf, uint64(f.horizon))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(count))
	for _, id := range f.ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	in := f.base.interner
	for _, id := range f.ids {
		buf = binary.AppendUvarint(buf, in.Heard(id))
	}
	alphabet := f.base.auto.Alphabet()
	// entry[l] is 1 + the dictionary index of letter l, 0 while unseen.
	entry := make([]uint32, len(alphabet))
	dict := make([]int32, 0, 16)
	for _, l := range f.letter {
		if entry[l] == 0 {
			dict = append(dict, l)
			entry[l] = uint32(len(dict))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, l := range dict {
		g := alphabet[l]
		for q := 0; q < n; q++ {
			buf = binary.AppendUvarint(buf, g.In(q))
		}
	}
	for _, l := range f.letter {
		buf = binary.AppendUvarint(buf, uint64(entry[l]-1))
	}
	for _, p := range f.parentOf {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	for _, r := range f.rootOf {
		buf = binary.AppendUvarint(buf, uint64(r))
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

// decodeColumns rebuilds the columns from an encodeColumns payload,
// validating the header against the frontier's immutable identity (which
// survives eviction) and every index against its column's range, and maps
// each dictionary graph back to its letter in the chain's compiled
// adversary. It accepts exactly what encodeColumns writes — minimal
// varints, ViewIDs the chain's interner handed out, each view's heard
// mask as that interner derives it, graphs with their self-loops that
// some compiled row offers, a duplicate-free dictionary in
// first-occurrence order with every entry used — so an accepted payload
// re-encodes byte for byte. The heard masks are checked and dropped.
func (f *frontier) decodeColumns(payload []byte) error {
	d := &pageDecoder{data: payload}
	h, n, count := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err == nil && (h != uint64(f.horizon) || n != uint64(f.n) || count != uint64(f.count)) {
		return fmt.Errorf("topo: frontier page header (h=%d n=%d count=%d) does not match round (h=%d n=%d count=%d)",
			h, n, count, f.horizon, f.n, f.count)
	}
	in := f.base.interner
	bound := uint64(in.IDBound())
	ids := make([]ptg.ViewID, f.count*f.n)
	for i := range ids {
		id := d.uvarint()
		if id >= bound {
			return fmt.Errorf("topo: frontier page references view %d beyond interner ID bound %d", id, bound)
		}
		ids[i] = ptg.ViewID(id)
	}
	for i, id := range ids {
		if h := d.uvarint(); d.err == nil && h != in.Heard(id) {
			return fmt.Errorf("topo: frontier page run %d process %d heard %#x, its view %d has %#x",
				i/f.n, i%f.n, h, id, in.Heard(id))
		}
	}
	dictLen := d.uvarint()
	if d.err != nil {
		return d.err
	}
	auto := f.base.auto
	if dictLen > count || dictLen > uint64(len(auto.Alphabet())) {
		return fmt.Errorf("topo: frontier page graph dictionary of %d entries for %d items over %d graphs",
			dictLen, count, len(auto.Alphabet()))
	}
	dict := make([]int32, dictLen)
	seen := make([]bool, len(auto.Alphabet()))
	masks := make([]uint64, f.n)
	for i := range dict {
		for q := range masks {
			masks[q] = d.uvarint()
			if d.err == nil && masks[q]&(1<<uint(q)) == 0 {
				return fmt.Errorf("topo: frontier page graph %d lacks the self-loop of node %d", i, q)
			}
		}
		if d.err != nil {
			return d.err
		}
		g, err := graph.FromInMasks(f.n, masks)
		if err != nil {
			return fmt.Errorf("topo: frontier page graph %d: %w", i, err)
		}
		l, ok := auto.Letter(g)
		if !ok {
			return fmt.Errorf("topo: frontier page graph %d (%v) is not offered by the adversary", i, g)
		}
		if seen[l] {
			return fmt.Errorf("topo: frontier page graph %d repeats an earlier dictionary entry", i)
		}
		seen[l] = true
		dict[i] = l
	}
	letter := make([]int32, f.count)
	used := uint64(0)
	for i := range letter {
		di := d.uvarint()
		if d.err != nil {
			return d.err
		}
		switch {
		case di > used || di >= dictLen:
			return fmt.Errorf("topo: frontier page graph index %d out of order (%d of %d entries seen)", di, used, dictLen)
		case di == used:
			used++
		}
		letter[i] = dict[di]
	}
	if used != dictLen {
		return fmt.Errorf("topo: frontier page graph dictionary has %d unused entries", dictLen-used)
	}
	parentOf := make([]int32, f.count)
	prevCount := 0
	if f.prev != nil {
		prevCount = f.prev.count
	}
	for i := range parentOf {
		p := d.uvarint()
		if d.err == nil && p >= uint64(prevCount) {
			return fmt.Errorf("topo: frontier page parent index %d out of %d", p, prevCount)
		}
		parentOf[i] = int32(p)
	}
	rootOf := make([]int32, f.count)
	baseCount := f.base.count
	for i := range rootOf {
		r := d.uvarint()
		if d.err == nil && r >= uint64(baseCount) {
			return fmt.Errorf("topo: frontier page root index %d out of %d", r, baseCount)
		}
		rootOf[i] = int32(r)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("topo: frontier page has %d trailing bytes", len(d.data))
	}
	f.ids, f.letter, f.parentOf, f.rootOf = ids, letter, parentOf, rootOf
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
// page references for horizons 1..Horizon, ascending. The head stays
// resident and unregistered; already-spilled rounds are referenced without
// touching their residency.
func (s *Space) SnapshotChain() ([]ChainRound, error) {
	if s.pager == nil {
		return nil, errors.New("topo: SnapshotChain requires a pager (Config.Pager)")
	}
	rounds := make([]ChainRound, s.Horizon)
	for f := s.fr; f != nil && f.horizon > 0; f = f.prev {
		cr := ChainRound{Horizon: f.horizon, Count: f.count}
		if f.pg != nil {
			cr.PageID = f.pageID
			size, ok := s.pager.SizeOf(f.pageID)
			if !ok {
				return nil, fmt.Errorf("topo: SnapshotChain: round %d page %q not registered", f.horizon, f.pageID)
			}
			cr.Bytes = size
		} else {
			if err := f.ensure(); err != nil {
				return nil, err
			}
			payload := f.encodeColumns()
			cr.PageID = roundPageID(f.horizon)
			cr.Bytes = int64(len(payload))
			if err := s.pager.Persist(cr.PageID, payload); err != nil {
				return nil, err
			}
			f.pageBytes = cr.Bytes
		}
		rounds[f.horizon-1] = cr
	}
	return rounds, nil
}

// ChainSpec describes a persisted frontier chain to restore.
type ChainSpec struct {
	Adversary   ma.Adversary
	InputDomain int
	MaxRuns     int // ≤ 0 selects DefaultMaxRuns
	// Interner must be the imported interner of the checkpointed session:
	// restore re-derives nothing, so the page's ViewIDs are only meaningful
	// against the arena they were interned into.
	Interner *ptg.Interner
	// Pager owns the page directory the rounds reference.
	Pager *pager.Pager
	// Rounds are the persisted rounds, horizons 1..H ascending (from
	// SnapshotChain).
	Rounds []ChainRound
	// Symmetry must be the automorphism group the checkpointed session was
	// quotiented by (nil or the trivial group for a full-space session), as
	// in Config.Symmetry. The Interner must be orbit-canonical under it
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
// The automaton states are not serialized: round by round, every page is
// read and checksum-verified exactly once and replayed against its parent
// round (replay), which derives the states, obligations and stabilizers
// and rejects a round that is not exactly what extension produces from the
// restored parents. A parent round is registered with the pager and
// evicted once its child has been replayed, so restore memory stays at
// ~two rounds plus one state column regardless of depth, and a corrupt
// page surfaces here as a clean error, never as a wrong resume.
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
	auto := s.fr.base.auto
	order := ptg.ViewID(spec.Interner.GroupOrder())
	for ri, cr := range spec.Rounds {
		if cr.Horizon != ri+1 {
			return nil, fmt.Errorf("topo: RestoreChain: round %d has horizon %d, want %d", ri, cr.Horizon, ri+1)
		}
		if cr.Count <= 0 || cr.Count > maxRuns {
			return nil, fmt.Errorf("topo: RestoreChain: round %d count %d out of range", cr.Horizon, cr.Count)
		}
		// The parents' rows letter every graph this round may play.
		for _, st := range s.state {
			auto.Row(st)
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
		if err := f.decodeColumns(payload); err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d: %w", cr.Horizon, err)
		}
		lo, hi := slices.Min(f.ids), slices.Max(f.ids)
		// The round's cone range, whole orbits from its least to its
		// greatest view: what the original extension recorded, since a
		// round stores only views of its own depth.
		f.idLo, f.idHi = int(lo/order*order), int((hi/order+1)*order)
		next, err := s.replay(f)
		if err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: %w", err)
		}
		if ri > 0 {
			// The parent round is validated and replayed against: register
			// it cold and drop its columns; walks fault them back on demand.
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
	return s, nil
}

// replay returns the space over f, the round after s's in its chain. A
// round stores no automaton states, obligations or stabilizers; replay
// derives them from s's by extendOne's recurrences. It also checks f
// against s the way extendOne would have built it: the runs are the
// children of s's runs in parent order, each parent's in its row's order
// with relabeled twins dropped, each with its parent's root. A round that
// is anything else — a run whose parent's state does not offer its graph,
// a repeated or missing sibling, a foreign root — is an error. View IDs
// are not checked here: the page checksum and decodeColumns' interner
// checks (every ID handed out, every heard mask its view's) guard them.
func (s *Space) replay(f *frontier) (*Space, error) {
	pf := s.fr
	if err := pf.ensure(); err != nil {
		return nil, err
	}
	// A local keeps the parent's column while faulting f may evict it.
	pRoot := pf.rootOf
	if err := f.ensure(); err != nil {
		return nil, err
	}
	letter, parentOf, rootOf := f.letter, f.parentOf, f.rootOf
	auto, grp := pf.base.auto, s.sym.group
	state := make([]int32, f.count)
	doneAt := make([]int32, f.count)
	stab := make([]uint64, f.count)
	c := 0
	for i, pst := range s.state {
		row := auto.Row(pst)
		for j, l := range row.Letters {
			g := auto.Graph(l)
			cStab := uint64(1)
			if s.stab[i] != 1 {
				if cStab = graphOrbitStab(g, grp, s.stab[i]); cStab == 0 {
					continue // a relabeled twin of an earlier sibling
				}
			}
			if c == f.count || parentOf[c] != int32(i) || letter[c] != l {
				return nil, f.misplaced(c, auto, s.state)
			}
			if rootOf[c] != pRoot[i] {
				return nil, fmt.Errorf("round %d run %d has root %d, its parent %d root %d", f.horizon, c, rootOf[c], i, pRoot[i])
			}
			st, da := row.Next[j], s.doneAt[i]
			if da < 0 && auto.Done(st) {
				da = int32(f.horizon)
			}
			state[c], doneAt[c], stab[c] = st, da, cStab
			c++
		}
	}
	if c != f.count {
		return nil, f.misplaced(c, auto, s.state)
	}
	return s.atRound(f, state, doneAt, stab), nil
}

// misplaced describes why run c of round f is not the child extension
// produces next (c == f.count: the round ran out of runs).
func (f *frontier) misplaced(c int, auto *ma.Table, parentState []int32) error {
	if c == f.count {
		return fmt.Errorf("round %d has %d runs, fewer than its parents' children", f.horizon, f.count)
	}
	l := f.letter[c]
	if _, ok := auto.Step(parentState[f.parentOf[c]], l); !ok {
		return fmt.Errorf("round %d run %d plays %v, which its parent's automaton state does not offer",
			f.horizon, c, auto.Graph(l))
	}
	return fmt.Errorf("round %d run %d (parent %d, graph %v) is not the child extension produces next",
		f.horizon, c, f.parentOf[c], auto.Graph(l))
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
// it replays the rounds from the base to t (replay), faulting spilled
// rounds as needed, since states are per-space, not per-frontier. It is
// the path behind check.Analyzer.SpaceAt for horizons other than the head
// and the separation horizon; a cold reporting/debugging operation,
// O(chain) page reads and table lookups.
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
	state, doneAt, stab := baseColumns(base, s.sym.group)
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
