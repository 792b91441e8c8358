package topo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	f.ids, f.heard, f.gs, f.parentOf, f.rootOf = nil, nil, nil, nil, nil
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
// keeps decoded rounds sharing graph backing arrays), parentOf and rootOf.
// The dictionary lists graphs in order of first occurrence. All integers
// are varint-coded; framing and checksums are the pager's job.
//
// The cost is linear in the bytes written: the dictionary is keyed by the
// graph's raw in-mask words, appended into one reused buffer, and a map
// lookup by string(buf) does not allocate — only a new dictionary entry
// does.
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
	dict := make([]graph.Graph, 0, 16)
	dictIdx := make(map[string]int, 16)
	gidx := make([]int, count)
	key := make([]byte, 0, 8*n)
	for i, g := range f.gs {
		key = appendMaskKey(key[:0], g)
		di, ok := dictIdx[string(key)]
		if !ok {
			di = len(dict)
			dictIdx[string(key)] = di
			dict = append(dict, g)
		}
		gidx[i] = di
	}
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, g := range dict {
		for q := 0; q < n; q++ {
			buf = binary.AppendUvarint(buf, g.In(q))
		}
	}
	for _, di := range gidx {
		buf = binary.AppendUvarint(buf, uint64(di))
	}
	for _, p := range f.parentOf {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	for _, r := range f.rootOf {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// appendMaskKey appends the graph's in-mask words, little-endian, as the
// dictionary key of a page's graph; within one round n is fixed, so the
// key identifies the graph exactly as Graph.Key does.
func appendMaskKey(buf []byte, g graph.Graph) []byte {
	for q := 0; q < g.N(); q++ {
		buf = binary.LittleEndian.AppendUint64(buf, g.In(q))
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
// survives eviction) and every index against its column's range. It
// accepts exactly what encodeColumns writes — minimal varints, ViewIDs in
// range, graphs with their self-loops, a duplicate-free dictionary in
// first-occurrence order with every entry used — so an accepted payload
// re-encodes byte for byte.
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
	if dictLen > count {
		return fmt.Errorf("topo: frontier page graph dictionary of %d entries for %d items", dictLen, count)
	}
	dict := make([]graph.Graph, dictLen)
	seen := make(map[string]bool, dictLen)
	masks := make([]uint64, f.n)
	var key []byte
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
		key = appendMaskKey(key[:0], g)
		if seen[string(key)] {
			return fmt.Errorf("topo: frontier page graph %d repeats an earlier dictionary entry", i)
		}
		seen[string(key)] = true
		dict[i] = g
	}
	gs := make([]graph.Graph, f.count)
	used := uint64(0)
	for i := range gs {
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
		gs[i] = dict[di]
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
	f.ids, f.heard, f.gs, f.parentOf, f.rootOf = ids, heard, gs, parentOf, rootOf
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
// The automaton states are not serialized (ma.State is opaque by design);
// they are recomputed by deterministic replay: round by round, every page
// is read and checksum-verified exactly once, the adversary is stepped
// along the recorded round graphs, and the round is then registered with
// the pager and evicted again — so restore memory stays at ~two rounds
// plus one state column regardless of depth, and a corrupt page surfaces
// here as a clean error, never as a wrong resume.
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
	idBound := ptg.ViewID(spec.Interner.IDBound())
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
		states := make([]ma.State, cr.Count)
		doneAt := make([]int32, cr.Count)
		valence := make([]int32, cr.Count)
		for c := 0; c < cr.Count; c++ {
			pi := f.parentOf[c]
			state := adv.Step(s.states[pi], f.gs[c])
			da := s.doneAt[pi]
			if da < 0 && adv.Done(state) {
				da = int32(cr.Horizon)
			}
			states[c] = state
			doneAt[c] = da
			valence[c] = s.valence[pi]
		}
		next := &Space{
			Adversary:   adv,
			InputDomain: spec.InputDomain,
			Horizon:     cr.Horizon,
			Interner:    spec.Interner,
			fr:          f,
			states:      states,
			doneAt:      doneAt,
			valence:     valence,
			maxRuns:     maxRuns,
			pager:       spec.Pager,
			sym:         s.sym,
			// Replay the stabilizer recurrence (derived state, never
			// serialized). Relabeled views need nothing replayed: the
			// imported interner re-derived every cone's stabilizer from its
			// key.
			stab: replayStab(s, f),
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
// faulting spilled rounds as needed and replaying the automaton states from
// the base (states are per-space, not per-frontier, so an evicted horizon
// has none). It is the rehydration path behind check.Analyzer.SpaceAt for
// evicted horizons; a cold reporting/debugging operation, O(chain) page
// reads and steps.
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
	states := make([]ma.State, base.count)
	doneAt := make([]int32, base.count)
	valence := make([]int32, base.count)
	// The stabilizer column is per-space derived state, replayed forward
	// alongside the automaton states.
	stab := make([]uint64, base.count)
	start := s.Adversary.Start()
	da0 := int32(-1)
	if s.Adversary.Done(start) {
		da0 = 0
	}
	for i, w := range base.inputs {
		states[i] = start
		doneAt[i] = da0
		valence[i] = valenceOf(w)
		stab[i], _ = inputOrbitRep(w, s.sym.group)
	}
	for ri := len(path) - 2; ri >= 0; ri-- {
		f := path[ri]
		if err := f.ensure(); err != nil {
			return nil, err
		}
		nextStates := make([]ma.State, f.count)
		nextDoneAt := make([]int32, f.count)
		nextValence := make([]int32, f.count)
		nextStab := make([]uint64, f.count)
		for c := 0; c < f.count; c++ {
			pi := f.parentOf[c]
			state := s.Adversary.Step(states[pi], f.gs[c])
			da := doneAt[pi]
			if da < 0 && s.Adversary.Done(state) {
				da = int32(f.horizon)
			}
			nextStates[c] = state
			nextDoneAt[c] = da
			nextValence[c] = valence[pi]
			nextStab[c] = graphOrbitStab(f.gs[c], s.sym.group, stab[pi])
		}
		states, doneAt, valence, stab = nextStates, nextDoneAt, nextValence, nextStab
	}
	return &Space{
		Adversary:   s.Adversary,
		InputDomain: s.InputDomain,
		Horizon:     t,
		Interner:    s.Interner,
		fr:          target,
		states:      states,
		doneAt:      doneAt,
		valence:     valence,
		maxRuns:     s.maxRuns,
		pager:       s.pager,
		sym:         s.sym,
		stab:        stab,
	}, nil
}

// CompSnapshot is the serializable summary of one component orbit; Members
// are not stored — they are rebuilt from CompOf (whose ascending sweep
// restores the ordered-by-smallest-member layout).
type CompSnapshot struct {
	Valences      []int  `json:"valences,omitempty"`
	Broadcasters  uint64 `json:"broadcasters,string"`
	UniformInputs uint64 `json:"uniformInputs,string"`
	// Stab is the orbit's stabilizer mask, omitted (0) when it is the
	// identity alone — always under the trivial group.
	Stab uint64 `json:"stab,string,omitempty"`
}

// DecompSnapshot is the serializable form of a Decomposition, relative to a
// space restored separately.
type DecompSnapshot struct {
	Horizon int   `json:"horizon"`
	CompOf  []int `json:"compOf"`
	// Labels are the per-item labels, omitted when every label is the
	// identity — always under the trivial group.
	Labels []uint8        `json:"labels,omitempty"`
	Comps  []CompSnapshot `json:"comps"`
}

// SnapshotDecomposition captures a decomposition for a checkpoint.
func SnapshotDecomposition(d *Decomposition) *DecompSnapshot {
	snap := &DecompSnapshot{
		Horizon: d.Space.Horizon,
		CompOf:  append([]int(nil), d.CompOf...),
		Comps:   make([]CompSnapshot, len(d.Comps)),
	}
	for _, l := range d.Labels {
		if l != 0 {
			snap.Labels = append([]uint8(nil), d.Labels...)
			break
		}
	}
	for ci := range d.Comps {
		c := &d.Comps[ci]
		snap.Comps[ci] = CompSnapshot{
			Valences:      append([]int(nil), c.Valences...),
			Broadcasters:  c.Broadcasters,
			UniformInputs: c.UniformInputs,
		}
		if c.Stab != 1 {
			snap.Comps[ci].Stab = c.Stab
		}
	}
	return snap
}

// RestoreDecomposition rebuilds a Decomposition over a restored space,
// validating the snapshot's shape strictly: the partition must label every
// item, reference every component, and keep components ordered by smallest
// member (the invariant Refine's seeding relies on); every stabilizer must
// be a subgroup of the space's symmetry group, and every label an element
// of it in canonical form — the least of its double coset, the identity for
// each orbit's smallest member. The encoding must be the one
// SnapshotDecomposition writes (trivial stabilizers and all-identity labels
// omitted), so a restored decomposition snapshots back to the same JSON.
func RestoreDecomposition(s *Space, snap *DecompSnapshot) (*Decomposition, error) {
	if snap.Horizon != s.Horizon {
		return nil, fmt.Errorf("topo: RestoreDecomposition: snapshot at horizon %d, space at %d", snap.Horizon, s.Horizon)
	}
	if len(snap.CompOf) != s.Len() {
		return nil, fmt.Errorf("topo: RestoreDecomposition: %d component ids for %d items", len(snap.CompOf), s.Len())
	}
	if len(snap.Labels) != 0 && len(snap.Labels) != s.Len() {
		return nil, fmt.Errorf("topo: RestoreDecomposition: %d labels for %d items", len(snap.Labels), s.Len())
	}
	grp := s.Group()
	d := &Decomposition{
		Space:  s,
		CompOf: append([]int(nil), snap.CompOf...),
		Labels: make([]uint8, s.Len()),
		Comps:  make([]Component, len(snap.Comps)),
	}
	copy(d.Labels, snap.Labels)
	if len(snap.Labels) != 0 && !slices.ContainsFunc(snap.Labels, func(l uint8) bool { return l != 0 }) {
		return nil, errors.New("topo: RestoreDecomposition: identity labels must be omitted")
	}
	for ci := range snap.Comps {
		st := snap.Comps[ci].Stab
		switch st {
		case 0:
			st = 1
		case 1:
			return nil, fmt.Errorf("topo: RestoreDecomposition: component %d: a trivial stabilizer must be omitted", ci)
		}
		if !grp.IsSubgroup(st) {
			return nil, fmt.Errorf("topo: RestoreDecomposition: component %d stabilizer %#x is not a subgroup of the order-%d symmetry group", ci, st, grp.Order())
		}
		d.Comps[ci].Stab = st
	}
	sizes := make([]int, len(snap.Comps))
	nextNew := 0
	for i, ci := range d.CompOf {
		if ci < 0 || ci >= len(snap.Comps) {
			return nil, fmt.Errorf("topo: RestoreDecomposition: item %d labeled %d of %d components", i, ci, len(snap.Comps))
		}
		if ci > nextNew {
			return nil, fmt.Errorf("topo: RestoreDecomposition: components not ordered by smallest member (item %d labeled %d before %d appeared)", i, ci, nextNew)
		}
		l := d.Labels[i]
		if int(l) >= grp.Order() {
			return nil, fmt.Errorf("topo: RestoreDecomposition: item %d label %d outside the order-%d symmetry group", i, l, grp.Order())
		}
		if ci == nextNew {
			nextNew++
			if l != 0 {
				return nil, fmt.Errorf("topo: RestoreDecomposition: item %d, smallest member of component %d, has label %d", i, ci, l)
			}
		}
		if grp.MinCoset(d.Comps[ci].Stab, l, s.stab[i]) != l {
			return nil, fmt.Errorf("topo: RestoreDecomposition: item %d label %d is not canonical", i, l)
		}
		sizes[ci]++
	}
	if nextNew != len(snap.Comps) {
		return nil, fmt.Errorf("topo: RestoreDecomposition: %d of %d components have no members", len(snap.Comps)-nextNew, len(snap.Comps))
	}
	arena := make([]int, len(d.CompOf))
	for ci := range d.Comps {
		d.Comps[ci].Members = arena[:0:sizes[ci]]
		d.Comps[ci].Valences = append([]int(nil), snap.Comps[ci].Valences...)
		d.Comps[ci].Broadcasters = snap.Comps[ci].Broadcasters
		d.Comps[ci].UniformInputs = snap.Comps[ci].UniformInputs
		arena = arena[sizes[ci]:]
	}
	for i, ci := range d.CompOf {
		d.Comps[ci].Members = append(d.Comps[ci].Members, i)
	}
	return d, nil
}
