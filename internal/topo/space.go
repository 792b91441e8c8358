// Package topo implements the paper's topological machinery at finite
// resolution: the space PS of admissible process-time-graph sequences
// restricted to horizon-t prefixes, the minimum topology's
// indistinguishability relation, the ε-approximations of Definition 6.2
// (connected components via union-find over shared views), broadcastability
// (Definition 5.8), and cross-component distances.
//
// The correspondence to the paper (see DESIGN.md §2 for proofs):
//
//	d_min(a,b) < 2^-t  ⇔  some process's views agree at all times 0..t
//	                   ⇔  some process's hash-consed time-t ViewIDs coincide
//
// so the transitive closure of "shares a time-t view with" computes exactly
// the 2^-t-approximation PS^ε of Definition 6.2, and its classes are the
// connected components of the horizon-t prefix space.
//
// # Memory layout
//
// A Space is columnar (structure of arrays): the newest round lives in
// dense per-space columns — ids and heard of length Len()·n, plus state,
// doneAt, valence, round-graph and parent-link columns of length Len() —
// and earlier rounds are reached through the chain of frontiers the space
// was extended from. There is no per-item object: a run's Views, Run and
// Item are thin adapters materialized on demand (O(Horizon) slice headers,
// zero copying), while the hot loops — frontier expansion, decomposition
// bucket scans, summary folds — read the columns directly. See DESIGN.md §5.
package topo

import (
	"context"
	"fmt"
	"sync"

	"topocon/internal/combi"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
	"topocon/internal/uf"
)

// frontier is the dense columnar storage of one round of one prefix-space
// chain: row i of ids/heard (the n-element segment at i·n) is the newest
// view row of item i, and parentOf/gs link the item to the previous round's
// frontier. Frontiers are immutable once built and shared between a space
// and its extensions, so earlier rounds are never copied — the chain is the
// columnar replacement of the per-item cloned row headers the pre-columnar
// layout carried.
type frontier struct {
	horizon int
	n       int
	count   int
	// ids[i*n+p] is the ViewID of process p in item i at this horizon;
	// heard[i*n+p] its heard-bitmask.
	ids   []ptg.ViewID
	heard []uint64
	// gs[i] is the round-horizon graph of item i; nil at horizon 0.
	gs []graph.Graph
	// parentOf[i] is the item index of i's parent in prev; nil at horizon 0.
	parentOf []int32
	// rootOf[i] is the index of i's horizon-0 ancestor — the input-vector
	// index, giving O(1) access to the run's inputs at any depth.
	rootOf []int32
	// inputs[r] is input vector r; set only on the horizon-0 frontier.
	inputs [][]int
	prev   *frontier
	// base is the horizon-0 frontier of the chain (itself at horizon 0),
	// cached so input lookups need no chain walk.
	base *frontier
	// idLo and idHi are Interner.IDBound() before and after the round that
	// built this frontier, so every view the round stored first lies in
	// [idLo, idHi). They size the next round's successor table (extend.go).
	// RestoreChain records the same range from the round's least and
	// greatest view, rounded out to whole orbits.
	idLo, idHi int

	// Out-of-core state (see paging.go): once spilled, pg/pageID locate the
	// persisted copy of the columns, and ids == nil marks them evicted. The
	// identity fields above (horizon, n, count, prev, base) always stay
	// resident. nil pg means the round is not paged.
	pg     *pager.Pager
	pageID string
	// pageBytes is the payload size of the round's page file when it is on
	// disk before the round is spilled — written by SnapshotChain, or read
	// back by RestoreChain — and 0 otherwise; spill then registers that
	// file instead of encoding the round again.
	pageBytes int64
}

// idRow returns the ViewID row of item i (aliases the column; read-only).
func (f *frontier) idRow(i int) []ptg.ViewID { return f.ids[i*f.n : (i+1)*f.n] }

// heardRow returns the heard-bitmask row of item i (aliases the column).
func (f *frontier) heardRow(i int) []uint64 { return f.heard[i*f.n : (i+1)*f.n] }

// Item is one admissible run prefix of a Space, materialized by Space.Item
// for callers that want the pre-columnar object view. The hot paths never
// build Items; use the columnar accessors (ViewAt, State, DoneAt, Valence,
// Inputs) when only single fields are needed.
type Item struct {
	// Run is the input assignment plus graph prefix.
	Run ptg.Run
	// Views holds the hash-consed views of all processes at all times.
	Views *ptg.Views
	// State is the adversary automaton state after the prefix.
	State ma.State
	// Done records whether the adversary's liveness obligations are
	// discharged on this prefix.
	Done bool
	// DoneAt is the earliest round at which the obligations were
	// discharged, or -1 while they are pending.
	DoneAt int
	// Valence is the common input value if the run is valent, else -1.
	Valence int
}

// Space is the horizon-t slice of PS: every admissible run prefix for every
// input assignment over the input domain {0, ..., InputDomain-1}. Storage
// is columnar; see the package comment.
type Space struct {
	Adversary   ma.Adversary
	InputDomain int
	Horizon     int
	Interner    *ptg.Interner

	// fr is the newest-round frontier; earlier rounds via fr.prev.
	fr *frontier
	// Per-item columns of the newest round, indexed by item.
	states  []ma.State
	doneAt  []int32
	valence []int32

	indexOnce sync.Once
	index     map[string]int // run key -> item index, built lazily by Find

	// parentOffsets links a space produced by extendOne to its parent:
	// the children of parent item i occupy [parentOffsets[i],
	// parentOffsets[i+1]). It is nil on spaces built from scratch and is
	// what Decomposition.Refine seeds the child partition from.
	parentOffsets []int

	maxRuns int // size cap inherited by Extend

	// pager, when non-nil, spills rounds that stop being the head to disk
	// and bounds the resident set; see paging.go.
	pager *pager.Pager

	// sym is the symmetry group the chain is quotiented by — the trivial
	// group, of order 1, when it is built without symmetry: items are
	// orbit representatives, stab[i] is the bitmask of group elements
	// fixing item i (1 under the trivial group), and the interner's IDs
	// carry each view's orbit. See symmetry.go / DESIGN.md §13.
	sym  *symState
	stab []uint64
}

// DefaultMaxRuns bounds the size of constructed spaces; BuildCtx returns an
// error beyond it so that callers fail fast instead of thrashing.
const DefaultMaxRuns = 4_000_000

// Config collects the optional knobs of BuildCtx. The zero value selects
// the defaults: DefaultMaxRuns and a fresh interner.
type Config struct {
	// MaxRuns caps the space size; ≤ 0 selects DefaultMaxRuns.
	MaxRuns int
	// Parallelism is ignored.
	//
	// Deprecated: a space is extended and decomposed on its caller's
	// goroutine. The field stays only because the benchmark module in
	// topobench/ still sets it.
	Parallelism int
	// Interner shares hash-consed views with other spaces or a compiled
	// decision map; nil allocates a fresh one.
	Interner *ptg.Interner
	// Pager, when non-nil, makes the frontier chain out-of-core: every
	// round that stops being the head is persisted to the pager's page
	// directory and its columns become evictable under the pager's hot-set
	// budget; chain-walking accessors fault pages back in transparently.
	// Required for SnapshotChain / checkpointing.
	Pager *pager.Pager
	// Symmetry quotients the chain by the given automorphism group of the
	// adversary's graph language (from ma.Automorphisms): only one
	// representative run per orbit is interned, with orbit sizes tracked
	// so FullLen and the verdict accounting still report full-space
	// numbers, and views are interned one cone per orbit
	// (ptg.Interner.AdoptGroup). nil selects the trivial group, which
	// interns every run. A supplied Interner must be orbit-canonical under
	// the same group — for the trivial group, a plain interner — or empty;
	// BuildCtx rejects any other. Passing a group that is NOT a subgroup
	// of the adversary's true automorphism group is unsound.
	Symmetry *ma.Group
}

// BuildCtx enumerates the horizon-t prefix space of the adversary with the
// given input domain size (≥ 2 values for consensus to be non-trivial)
// under a context: the enumeration stops at cancellation and returns
// ctx.Err(). For iterative deepening build the horizon-0 space once and
// grow it with Extend, which reuses the horizon-t items instead of
// re-enumerating from the root.
//
// The space is built round by round into the columnar frontier chain —
// exactly the expansion Extend performs, which produces items in the
// depth-first prefix-enumeration order (children of one parent in Choices
// order, parents in item order). The final item count is cross-checked
// against the automaton's independent ma.CountPrefixes; a from-scratch
// build carries no Refine parent linkage (see Decomposition.Refine).
func BuildCtx(ctx context.Context, adv ma.Adversary, inputDomain, horizon int, cfg Config) (*Space, error) {
	if inputDomain < 1 {
		return nil, fmt.Errorf("topo: input domain size %d < 1", inputDomain)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("topo: negative horizon %d", horizon)
	}
	maxRuns := cfg.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRuns
	}
	n := adv.N()
	inputVectors := combi.CountWords(inputDomain, n)
	prefixes := ma.CountPrefixes(adv, horizon)
	total := inputVectors * prefixes
	if total > maxRuns {
		return nil, fmt.Errorf("topo: space has %d runs, exceeding cap %d", total, maxRuns)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	interner := cfg.Interner
	if interner == nil {
		interner = ptg.NewInterner()
	}
	s, err := buildBaseSym(adv, inputDomain, interner, maxRuns, cfg.Symmetry)
	if err != nil {
		return nil, err
	}
	s.pager = cfg.Pager
	for s.Horizon < horizon {
		next, err := s.extendOne(ctx)
		if err != nil {
			return nil, err
		}
		s = next
	}
	// The automaton's independent CountPrefixes counts the full space, so
	// quotiented builds cross-check their orbit accounting too.
	if s.FullLen() != total {
		return nil, fmt.Errorf("topo: built %d runs at horizon %d, automaton counts %d",
			s.FullLen(), horizon, total)
	}
	// From-scratch builds expose no parent linkage: Refine requires a space
	// produced by a one-round Extend of the decomposed space.
	s.parentOffsets = nil
	return s, nil
}

// buildBaseSym constructs the horizon-0 space: leaf views, the
// adversary's start state, and one item per G-orbit of input vectors — the
// numerically smallest — with its stabilizer mask (every vector, with
// stabilizer 1, under the trivial group). A nil group is the trivial
// group. The interner must be orbit-canonical under the group (an empty
// one adopts it), so a space and its interner always agree on the group.
func buildBaseSym(adv ma.Adversary, inputDomain int, interner *ptg.Interner, maxRuns int, group *ma.Group) (*Space, error) {
	n := adv.N()
	if group == nil {
		group = ma.TrivialGroup(n)
	}
	if err := interner.AdoptGroup(groupPerms(group)); err != nil {
		return nil, fmt.Errorf("topo: symmetry quotient: %w", err)
	}
	sym := &symState{group: group, m: group.Order(), tab: uf.NewGroup(interner.GroupTable())}
	var inputs [][]int
	var stab []uint64
	combi.Words(inputDomain, n, func(w []int) bool {
		st, keep := inputOrbitRep(w, group)
		if !keep {
			return true
		}
		stab = append(stab, st)
		inputs = append(inputs, append([]int(nil), w...))
		return true
	})
	count := len(inputs)
	fr := &frontier{
		horizon: 0,
		n:       n,
		count:   count,
		ids:     make([]ptg.ViewID, count*n),
		heard:   make([]uint64, count*n),
		rootOf:  make([]int32, count),
		inputs:  inputs,
	}
	fr.base = fr
	fr.idLo = interner.IDBound()
	s := &Space{
		Adversary:   adv,
		InputDomain: inputDomain,
		Horizon:     0,
		Interner:    interner,
		fr:          fr,
		states:      make([]ma.State, count),
		doneAt:      make([]int32, count),
		valence:     make([]int32, count),
		maxRuns:     maxRuns,
		sym:         sym,
		stab:        stab,
	}
	start := adv.Start()
	doneAt := int32(-1)
	if adv.Done(start) {
		doneAt = 0
	}
	for i, w := range inputs {
		for p := 0; p < n; p++ {
			fr.ids[i*n+p] = interner.Leaf(p, w[p])
			fr.heard[i*n+p] = 1 << uint(p)
		}
		fr.rootOf[i] = int32(i)
		s.states[i] = start
		s.doneAt[i] = doneAt
		s.valence[i] = valenceOf(w)
	}
	fr.idHi = interner.IDBound()
	if err := interner.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// valenceOf returns the common input value of a valent vector, else -1.
func valenceOf(inputs []int) int32 {
	if len(inputs) == 0 {
		return -1
	}
	v := inputs[0]
	for _, x := range inputs[1:] {
		if x != v {
			return -1
		}
	}
	return int32(v)
}

// cancelCheckInterval is how many items may be processed between context
// polls during scans; small enough for sub-millisecond cancellation
// latency, large enough to keep the poll off the profile.
const cancelCheckInterval = 256

// Len returns the number of runs in the space.
func (s *Space) Len() int { return s.fr.count }

// N returns the process count.
func (s *Space) N() int { return s.Adversary.N() }

// ViewAt returns the ViewID of process p in item i at the space's horizon —
// a direct column read (plus a two-compare residency check; a space
// rehydrated from spilled pages may have had its round evicted again).
func (s *Space) ViewAt(i, p int) ptg.ViewID {
	s.fr.fault()
	return s.fr.ids[i*s.fr.n+p]
}

// HeardByAll returns the bitmask of processes heard by every process in
// item i at the space's horizon — a fold over one column row.
func (s *Space) HeardByAll(i int) uint64 {
	s.fr.fault()
	acc := graph.AllNodes(s.fr.n)
	for _, h := range s.fr.heardRow(i) {
		acc &= h
	}
	return acc
}

// HeardByAllAt is HeardByAll at an earlier round t ≤ Horizon: it walks the
// frontier chain up to item i's round-t ancestor and folds that heard row
// in place — no Views adapter, no allocation. Callers that only need the
// horizon row should use HeardByAll (a direct column read).
func (s *Space) HeardByAllAt(i, t int) uint64 {
	f, idx := s.fr, i
	for f.horizon > t {
		f.fault()
		idx = int(f.parentOf[idx])
		f = f.prev
	}
	f.fault()
	acc := graph.AllNodes(f.n)
	for _, h := range f.heardRow(idx) {
		acc &= h
	}
	return acc
}

// State returns the adversary automaton state of item i.
func (s *Space) State(i int) ma.State { return s.states[i] }

// Done reports whether item i's liveness obligations are discharged.
func (s *Space) Done(i int) bool { return s.doneAt[i] >= 0 }

// DoneAt returns the earliest round at which item i's obligations were
// discharged, or -1 while pending.
func (s *Space) DoneAt(i int) int { return int(s.doneAt[i]) }

// Valence returns the common input value of item i if it is valent, else -1.
func (s *Space) Valence(i int) int { return int(s.valence[i]) }

// Inputs returns the input vector of item i — an O(1) lookup through the
// root-ancestor column and the chain's cached horizon-0 frontier. The
// returned slice is shared; callers must not mutate it.
func (s *Space) Inputs(i int) []int {
	s.fr.fault()
	return s.fr.base.inputs[s.fr.rootOf[i]]
}

// ViewsOf materializes the hash-consed views of item i at all times
// 0..Horizon as a ptg.Views adapter whose rows alias the frontier columns:
// O(Horizon) slice headers, no copying. The adapter supports the full read
// API (ID, Heard, HeardByAll, BroadcastTime, AgreeLevel…) and can even be
// extended — new rows are appended without touching the shared columns.
func (s *Space) ViewsOf(i int) *ptg.Views {
	ids := make([][]ptg.ViewID, s.Horizon+1)
	heard := make([][]uint64, s.Horizon+1)
	f, idx := s.fr, i
	for {
		f.fault()
		ids[f.horizon] = f.idRow(idx)
		heard[f.horizon] = f.heardRow(idx)
		if f.prev == nil {
			break
		}
		idx = int(f.parentOf[idx])
		f = f.prev
	}
	return ptg.ViewsFromRows(s.Interner, ids, heard)
}

// RunOf materializes the run prefix of item i: inputs via the root column,
// graphs by walking the frontier chain.
func (s *Space) RunOf(i int) ptg.Run {
	graphs := make([]graph.Graph, s.Horizon)
	f, idx := s.fr, i
	for f.prev != nil {
		f.fault()
		graphs[f.horizon-1] = f.gs[idx]
		idx = int(f.parentOf[idx])
		f = f.prev
	}
	return ptg.Run{Inputs: s.Inputs(i), Graphs: graphs}
}

// Item materializes item i in the pre-columnar object form. O(Horizon);
// intended for cold paths (reporting, rule evaluation, tests) — hot loops
// read the columns via the field accessors instead.
func (s *Space) Item(i int) Item {
	return Item{
		Run:     s.RunOf(i),
		Views:   s.ViewsOf(i),
		State:   s.states[i],
		Done:    s.doneAt[i] >= 0,
		DoneAt:  int(s.doneAt[i]),
		Valence: int(s.valence[i]),
	}
}

// Find returns the index of the item with the given run, or -1. The lookup
// index is built on first use (concurrent Finds are safe), keeping space
// construction and extension — the checker's hot path, which never calls
// Find — free of run-key serialization.
func (s *Space) Find(r ptg.Run) int {
	s.indexOnce.Do(func() {
		index := make(map[string]int, s.Len())
		for i := 0; i < s.Len(); i++ {
			index[s.RunOf(i).Key()] = i
		}
		s.index = index
	})
	if i, ok := s.index[r.Key()]; ok {
		return i
	}
	return -1
}

// ValentItems returns the indices of the v-valent runs (the z_v of the
// paper).
func (s *Space) ValentItems(v int) []int {
	var out []int
	for i, val := range s.valence {
		if int(val) == v {
			out = append(out, i)
		}
	}
	return out
}
