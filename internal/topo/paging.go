package topo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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
	f.ids, f.heard, f.letter, f.parentOf, f.rootOf = nil, nil, nil, nil, nil
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
// ids, heard, a deduplicated round-graph dictionary plus per-item indices
// (one round's graphs come from a small Choices menu, so the dictionary
// keeps pages small), parentOf and rootOf. The dictionary lists graphs in
// order of first occurrence. All integers are varint-coded; framing and
// checksums are the pager's job.
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
	for _, h := range f.heard {
		buf = binary.AppendUvarint(buf, h)
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
// varints, ViewIDs in range, graphs with their self-loops that some
// compiled row offers, a duplicate-free dictionary in first-occurrence
// order with every entry used — so an accepted payload re-encodes byte for
// byte.
func (f *frontier) decodeColumns(payload []byte) error {
	d := &pageDecoder{data: payload}
	h, n, count := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err == nil && (h != uint64(f.horizon) || n != uint64(f.n) || count != uint64(f.count)) {
		return fmt.Errorf("topo: frontier page header (h=%d n=%d count=%d) does not match round (h=%d n=%d count=%d)",
			h, n, count, f.horizon, f.n, f.count)
	}
	ids := make([]ptg.ViewID, f.count*f.n)
	for i := range ids {
		id := d.uvarint()
		if id > math.MaxInt32 {
			return fmt.Errorf("topo: frontier page view ID %d out of range", id)
		}
		ids[i] = ptg.ViewID(id)
	}
	heard := make([]uint64, f.count*f.n)
	for i := range heard {
		heard[i] = d.uvarint()
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
	f.ids, f.heard, f.letter, f.parentOf, f.rootOf = ids, heard, letter, parentOf, rootOf
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
// read and checksum-verified exactly once, each run's state is looked up in
// the chain's compiled adversary from its parent's state and its recorded
// round graph, and the round is then registered with the pager and evicted
// again — so restore memory stays at ~two rounds plus one state column
// regardless of depth. A round graph the parent's state does not offer, or
// one that is not its orbit's representative, fails the restore, so a
// corrupt page surfaces here as a clean error, never as a wrong resume.
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
	n := adv.N()
	s, err := buildBaseSym(adv, spec.InputDomain, spec.Interner, maxRuns, spec.Symmetry)
	if err != nil {
		return nil, fmt.Errorf("topo: RestoreChain: %w", err)
	}
	s.pager = spec.Pager
	auto := s.fr.base.auto
	grp := s.sym.group
	idBound := ptg.ViewID(spec.Interner.IDBound())
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
			n:       n,
			count:   cr.Count,
			prev:    s.fr,
			base:    s.fr.base,
		}
		if err := f.decodeColumns(payload); err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d: %w", cr.Horizon, err)
		}
		lo, hi := idBound, ptg.ViewID(-1)
		for _, id := range f.ids {
			if id < 0 || id >= idBound {
				return nil, fmt.Errorf("topo: RestoreChain: round %d references view %d beyond interner ID bound %d",
					cr.Horizon, id, idBound)
			}
			lo, hi = min(lo, id), max(hi, id)
		}
		// The round's cone range, whole orbits from its least to its
		// greatest view: what the original extension recorded, since a
		// round stores only views of its own depth.
		f.idLo, f.idHi = int(lo/order*order), int((hi/order+1)*order)
		// States, obligations and stabilizers are derived state, never
		// serialized: replay extendOne's recurrences. Relabeled views need
		// nothing replayed: the imported interner re-derived every cone's
		// stabilizer from its key.
		state := make([]int32, cr.Count)
		doneAt := make([]int32, cr.Count)
		stab := make([]uint64, cr.Count)
		for c := 0; c < cr.Count; c++ {
			pi, l := f.parentOf[c], f.letter[c]
			st, ok := auto.Step(s.state[pi], l)
			if !ok {
				return nil, fmt.Errorf("topo: RestoreChain: round %d run %d plays %v, which its parent's automaton state does not offer",
					cr.Horizon, c, auto.Graph(l))
			}
			if stab[c] = graphOrbitStab(auto.Graph(l), grp, s.stab[pi]); stab[c] == 0 {
				return nil, fmt.Errorf("topo: RestoreChain: round %d run %d plays %v, which is not its orbit's representative",
					cr.Horizon, c, auto.Graph(l))
			}
			da := s.doneAt[pi]
			if da < 0 && auto.Done(st) {
				da = int32(cr.Horizon)
			}
			state[c], doneAt[c] = st, da
		}
		next := &Space{
			Adversary:   adv,
			InputDomain: spec.InputDomain,
			Horizon:     cr.Horizon,
			Interner:    spec.Interner,
			fr:          f,
			state:       state,
			doneAt:      doneAt,
			maxRuns:     maxRuns,
			pager:       spec.Pager,
			sym:         s.sym,
			stab:        stab,
		}
		if cr.Horizon < len(spec.Rounds) {
			// Interior round: register it cold (the page was just validated)
			// and drop the columns; walks fault them back on demand. The
			// deepest round stays resident as the new head.
			if err := spec.Pager.Adopt(cr.PageID, cr.Bytes, f.evict); err != nil {
				return nil, err
			}
			f.pg = spec.Pager
			f.pageID = cr.PageID
			f.evict()
		} else {
			f.pageBytes = int64(len(payload)) // the head's page is on disk already
		}
		s = next
	}
	return s, nil
}

// AncestorAt materializes the space at an earlier horizon t of the chain,
// faulting spilled rounds as needed and replaying the automaton state IDs
// through the chain's compiled adversary from the base (states are
// per-space, not per-frontier, so an evicted horizon has none). It is the
// rehydration path behind check.Analyzer.SpaceAt for evicted horizons; a
// cold reporting/debugging operation, O(chain) page reads and table
// lookups.
func (s *Space) AncestorAt(t int) (*Space, error) {
	if t == s.Horizon {
		return s, nil
	}
	if t < 0 || t > s.Horizon {
		return nil, fmt.Errorf("topo: AncestorAt(%d) outside chain of horizon %d", t, s.Horizon)
	}
	target := s.fr
	for target.horizon > t {
		target = target.prev
	}
	// Collect the path base..target, then replay forward.
	path := make([]*frontier, 0, t+1)
	for f := target; f != nil; f = f.prev {
		path = append(path, f)
	}
	base := path[len(path)-1]
	auto := base.auto
	state := make([]int32, base.count) // every run starts in state 0
	doneAt := make([]int32, base.count)
	// The stabilizer column is per-space derived state, replayed forward
	// alongside the automaton states.
	stab := make([]uint64, base.count)
	da0 := int32(-1)
	if auto.Done(auto.Start()) {
		da0 = 0
	}
	for i, w := range base.inputs {
		doneAt[i] = da0
		stab[i], _ = inputOrbitRep(w, s.sym.group)
	}
	for ri := len(path) - 2; ri >= 0; ri-- {
		f := path[ri]
		if err := f.ensure(); err != nil {
			return nil, err
		}
		nextState := make([]int32, f.count)
		nextDoneAt := make([]int32, f.count)
		nextStab := make([]uint64, f.count)
		for c := 0; c < f.count; c++ {
			pi, l := f.parentOf[c], f.letter[c]
			st, _ := auto.Step(state[pi], l) // the chain was built or restored through the table
			da := doneAt[pi]
			if da < 0 && auto.Done(st) {
				da = int32(f.horizon)
			}
			nextState[c] = st
			nextDoneAt[c] = da
			nextStab[c] = graphOrbitStab(auto.Graph(l), s.sym.group, stab[pi])
		}
		state, doneAt, stab = nextState, nextDoneAt, nextStab
	}
	return &Space{
		Adversary:   s.Adversary,
		InputDomain: s.InputDomain,
		Horizon:     t,
		Interner:    s.Interner,
		fr:          target,
		state:       state,
		doneAt:      doneAt,
		maxRuns:     s.maxRuns,
		pager:       s.pager,
		sym:         s.sym,
		stab:        stab,
	}, nil
}
