// Package check implements the paper's primary contribution in executable
// form: the consensus solvability characterizations (Theorems 5.5, 5.11,
// 6.6, 6.7 and Corollary 5.6) and the universal consensus algorithm
// extracted from the proof of Theorem 5.5.
//
// The checker analyses the horizon-t prefix spaces of a message adversary
// (package topo). Its soundness rests on the refinement property: if two
// runs share a process view at horizon t+1 they share one at horizon t, so
// connected components only ever split as the horizon grows. Consequently
//
//   - a component that is valence-pure at some horizon stays valence-pure
//     at all later horizons, making "decide v once every compatible run
//     lies in a pure-v component" safe at any time; and
//   - once no component mixes two valences, separation persists forever —
//     the first separating horizon is an exact solvability witness for
//     compact adversaries (Theorem 6.6's ε).
package check

import (
	"fmt"
	"math/bits"

	"topocon/internal/ma"
	"topocon/internal/ptg"
	"topocon/internal/topo"
)

// DecisionMap is the executable form of the paper's universal consensus
// algorithm (proof of Theorem 5.5): a partition {PS(v)} of the reference
// prefix space into open sets, compiled into a lookup table from local
// views to decision values. A process decides v at time t as soon as its
// view V satisfies {b ∈ PS : π_p(b^t) = V} ⊆ PS(v) — here: as soon as its
// hash-consed ViewID is decisive.
type DecisionMap struct {
	adv       ma.Adversary
	interner  *ptg.Interner
	reference int
	domain    int
	// group is the symmetry group of the reference space, and order its
	// order: a view ID divided by it is the view's orbit id, and the
	// remainder ℓ the element reaching the view from its orbit's stored
	// cone.
	group *ma.Group
	order int32
	// orbit[c] is 1 + the value the stored cone of orbit c decides, or 0
	// when it decides none; the view with coset label ℓ decides π_ℓ of it.
	orbit []int32
	// twin holds, by view ID, the decisive views of the orbits decided
	// twin by twin (only under a nontrivial group).
	twin map[ptg.ViewID]int
	// size is the number of decisive views of the full space.
	size int
	// assignment[ci] is the value assigned to the base component of
	// component orbit ci of the reference decomposition (-1 for mixed
	// components).
	assignment []int
	// twinValues[ci], when non-nil, holds the value assigned to each twin
	// σ_g·(base component), indexed by g, for the component orbits whose
	// assignment is not equivariant: twin σ_g is not assigned π_g of the
	// base's value. These are valence-free orbits, assigned the input of
	// their smallest uniform broadcaster, which depends on the relabeling
	// when the broadcasters hold different inputs, or the default value,
	// which the value part does not relabel.
	twinValues [][]int
}

// BuildDecisionMap compiles the universal algorithm from the decomposition
// of the reference-horizon space, following the meta-procedure after
// Theorem 5.5:
//
//  1. every component containing a v-valent run is assigned v (components
//     mixing valences stay unassigned — consensus cannot decide them);
//  2. valence-free components are assigned the input value of their
//     smallest broadcaster (Definition 5.8); by Theorem 5.9 that input is
//     uniform across the component. This choice — rather than a fixed
//     default — keeps the assignment aligned with the value neighbouring
//     valent components carry, which is what makes the universal algorithm
//     terminate (the paper's step 3 says "arbitrary", but arbitrary is
//     only safe for agreement and validity, not for fast termination);
//     components without a broadcaster fall back to the default value;
//  3. a view at time t ≤ reference is decisive for v iff every run
//     compatible with it lies in a component assigned v.
//
// Under a symmetry quotient the map compiles once per orbit where the
// assignment is equivariant: the twin (σ, π)·C of a component assigned v
// is assigned π(v), because valences and inputs travel with the
// relabeling, so the views of an orbit decide π-images of one value. Views
// are bucketed by orbit id (ViewID / |G|) over the representative rows,
// and each run's value is carried back to the orbit's stored cone; the
// view with coset label ℓ then decides π_ℓ of the stored cone's value. An
// orbit that meets a component orbit whose assignment is not equivariant
// (twinValues) is decided twin by twin.
func BuildDecisionMap(d *topo.Decomposition, defaultValue int) *DecisionMap {
	s := d.Space
	in := s.Interner
	grp := s.SymGroup()
	order := int32(grp.Order())
	m := &DecisionMap{
		adv:        s.Adversary,
		interner:   in,
		reference:  s.Horizon,
		domain:     s.InputDomain,
		group:      grp,
		order:      order,
		assignment: make([]int, len(d.Comps)),
		twinValues: make([][]int, len(d.Comps)),
	}
	for ci := range d.Comps {
		c := &d.Comps[ci]
		switch len(c.Valences) {
		case 0:
			// The smallest member's run lies in the base component.
			m.assignment[ci], m.twinValues[ci] = valenceFreeValues(s, c, s.Inputs(int(c.Members[0])), defaultValue)
		case 1:
			m.assignment[ci] = c.Valences[0]
		default:
			m.assignment[ci] = -1
		}
	}
	// A view is decisive iff all its runs' components share one assigned
	// value. ViewIDs encode owner and time, so one table over all (t, p)
	// is sound. state[c] is 0 while orbit c is unseen, 1 once its runs
	// disagree, v+2 while they all decide v (for the stored cone), and -1
	// once it is decided twin by twin in twins[c], indexed by the element
	// reaching the twin.
	state := make([]int32, in.Size())
	var twins map[int32][]int32
	toTwins := func(c int32) []int32 {
		if twins == nil {
			twins = make(map[int32][]int32)
		}
		tw, st := make([]int32, order), state[c]
		for k := 0; k < int(order); k++ {
			e := int32(in.Relabel(ptg.ViewID(c*order), k)) - c*order
			tw[e] = mergeState(tw[e], m.relabelState(k, st))
		}
		twins[c], state[c] = tw, -1
		return tw
	}
	for i := 0; i < s.Len(); i++ {
		ci := int(d.CompOf[i])
		v, tv := m.assignment[ci], m.twinValues[ci]
		// Twin σ_k·(run i) lies in the twin σ_{k∘L⁻¹} of the base component.
		li := grp.Inv(d.Labels[i])
		views := s.ViewsOf(i)
		for t := 0; t <= s.Horizon; t++ {
			for p := 0; p < s.N(); p++ {
				id := views.ID(t, p)
				c := int32(id) / order
				if tv == nil && state[c] >= 0 {
					// The twin σ_ℓ⁻¹·(run i) holds the stored cone.
					l := uint8(int32(id) - c*order)
					state[c] = mergeState(state[c], valueState(grp.Value(int(grp.Mul(grp.Inv(l), li)), v)))
					continue
				}
				tw := twins[c]
				if state[c] >= 0 {
					tw = toTwins(c)
				}
				for k := 0; k < int(order); k++ {
					e := int32(in.Relabel(id, k)) - c*order
					tw[e] = mergeState(tw[e], valueState(m.twinValue(ci, grp.Mul(uint8(k), li))))
				}
			}
		}
	}
	// Orbit c holds |G| / |Stab(c)| distinct views, one per coset of its
	// stabilizer. The stored cone decides u only when every element of
	// its stabilizer fixes u: σ_h·(a run holding it) holds it too and
	// lies in a component assigned π_h of that run's value. A twin-by-twin
	// orbit counts its decisive cosets.
	for c, st := range state {
		state[c] = 0
		if st < 2 {
			continue
		}
		u, stab := int(st-2), in.OrbitStab(c)
		if fixesValue(grp, stab, u) {
			m.size += grp.Index(stab)
			state[c] = st - 1
		}
	}
	m.orbit = state
	for c, tw := range twins {
		stab := in.OrbitStab(int(c))
		for e, st := range tw {
			if st >= 2 && grp.MinCoset(1, uint8(e), stab) == uint8(e) {
				if m.twin == nil {
					m.twin = make(map[ptg.ViewID]int)
				}
				m.twin[ptg.ViewID(c*order+int32(e))] = int(st - 2)
				m.size++
			}
		}
	}
	return m
}

// valueState is the decision state of a run assigned value v (-1 for a
// mixed component): 1 undecided, v+2 decisive for v.
func valueState(v int) int32 {
	if v < 0 {
		return 1
	}
	return int32(v) + 2
}

// mergeState folds two decision states (0 unseen, 1 undecided, v+2
// decisive for v).
func mergeState(a, b int32) int32 {
	switch {
	case a == 0:
		return b
	case b == 0, a == b:
		return a
	}
	return 1
}

// relabelState returns the decision state st of a view relabeled by group
// element k: a decisive value v becomes π_k(v).
func (m *DecisionMap) relabelState(k int, st int32) int32 {
	if st < 2 {
		return st
	}
	return valueState(m.group.Value(k, int(st-2)))
}

// fixesValue reports whether every element of the subgroup stab fixes
// value u.
func fixesValue(g *ma.Group, stab uint64, u int) bool {
	if g.Domain() == 0 {
		return true
	}
	for rest := stab &^ 1; rest != 0; rest &= rest - 1 {
		if g.Value(bits.TrailingZeros64(rest), u) != u {
			return false
		}
	}
	return true
}

// valenceFreeValues returns the value assigned to the base component c of
// a valence-free orbit — the input of its smallest uniform broadcaster,
// or defaultValue without one — and, when the assignment is not
// equivariant, the value of every twin σ_g·c, indexed by g. The twin's
// uniform broadcasters are σ_g of c's, holding π_g of c's inputs, so its
// smallest one is σ_g(p) for the p in c's set with the least image; the
// default value is the same for every twin. The twins' values are nil
// when each twin gets π_g of the base's value (always under the trivial
// group).
func valenceFreeValues(s *topo.Space, c *topo.Component, inputs []int, defaultValue int) (int, []int) {
	grp := s.SymGroup()
	bc := c.Broadcasters & c.UniformInputs
	value := func(g int) int {
		if bc == 0 {
			return defaultValue
		}
		perm := grp.Elem(g)
		best := bits.TrailingZeros64(bc)
		for mm := bc; mm != 0; mm &= mm - 1 {
			if p := bits.TrailingZeros64(mm); perm[p] < perm[best] {
				best = p
			}
		}
		return grp.Value(g, inputs[best])
	}
	base := value(0)
	var out []int
	for g := 1; g < grp.Order(); g++ {
		v := value(g)
		if out == nil && v != grp.Value(g, base) {
			out = make([]int, grp.Order())
			for k := 0; k < g; k++ {
				out[k] = grp.Value(k, base)
			}
		}
		if out != nil {
			out[g] = v
		}
	}
	return base, out
}

// twinValue returns the value assigned to the twin σ_g of component orbit
// ci's base component.
func (m *DecisionMap) twinValue(ci int, g uint8) int {
	if tv := m.twinValues[ci]; tv != nil {
		return tv[g]
	}
	if v := m.assignment[ci]; v >= 0 {
		return m.group.Value(int(g), v)
	}
	return -1
}

// Adversary returns the adversary the map was built for.
func (m *DecisionMap) Adversary() ma.Adversary { return m.adv }

// Interner returns the interner in which views must be computed for Decide
// lookups to be meaningful.
func (m *DecisionMap) Interner() *ptg.Interner { return m.interner }

// Reference returns the horizon of the space the map was compiled from.
func (m *DecisionMap) Reference() int { return m.reference }

// Size returns the number of decisive views, counted in the full space: a
// decisive view orbit counts each of its distinct twins.
func (m *DecisionMap) Size() int { return m.size }

// Decide returns the decision value for a view, if the view is decisive.
func (m *DecisionMap) Decide(id ptg.ViewID) (int, bool) {
	if id < 0 {
		return 0, false
	}
	if c := int32(id) / m.order; int(c) < len(m.orbit) && m.orbit[c] > 0 {
		return m.group.Value(int(int32(id)-c*m.order), int(m.orbit[c]-1)), true
	}
	v, ok := m.twin[id]
	return v, ok
}

// DecisionRounds runs the universal algorithm over every run of the
// reference space and returns, for each run, the per-process decision
// times (-1 when a process has not decided by the reference horizon) and
// values. On quotiented spaces (DESIGN.md §13) the rows enumerate every
// orbit member — the twin σ_k·(run i) lands at row i*SymOrder()+k — so the
// result covers the full space, not just the interned representatives.
func (m *DecisionMap) DecisionRounds(s *topo.Space) ([][]int, [][]int, error) {
	if s.Interner != m.interner {
		return nil, nil, fmt.Errorf("check: space and decision map use different interners")
	}
	n := s.N()
	mult := s.SymOrder()
	times := make([][]int, s.Len()*mult)
	values := make([][]int, s.Len()*mult)
	for i := 0; i < s.Len(); i++ {
		for k := 0; k < mult; k++ {
			pi := i*mult + k
			times[pi] = make([]int, n)
			values[pi] = make([]int, n)
			views := s.PseudoViews(i, k)
			for p := 0; p < n; p++ {
				times[pi][p] = -1
				values[pi][p] = -1
				for t := 0; t <= s.Horizon && t <= m.reference; t++ {
					if v, ok := m.Decide(views.ID(t, p)); ok {
						times[pi][p] = t
						values[pi][p] = v
						break
					}
				}
			}
		}
	}
	return times, values, nil
}

// CrossAssignmentLevel returns the largest agreement level over pairs of
// runs whose assigned decision values differ — i.e. the minimum distance
// between the decision sets PS(v) of the compiled partition is
// 2^-CrossAssignmentLevel. For compact solvable adversaries this distance
// is bounded away from 0 uniformly (Fig. 4); along deadline families it
// shrinks as 2^-R, witnessing the distance-0 limits of the non-compact
// union (Fig. 5). The second return is false when no such pair exists.
func (m *DecisionMap) CrossAssignmentLevel(d *topo.Decomposition) (int, bool) {
	s := d.Space
	if s.Interner != m.interner || len(d.Comps) != len(m.assignment) {
		return 0, false
	}
	// Materialize each assigned run's Views adapter once; the pair scan
	// then touches only shared row headers. On quotiented spaces the scan
	// covers every twin: cross-value pairs can relate two members of the
	// same orbit, so representatives alone would overstate the separation
	// level. Twin σ_k·(run i) lies in the twin σ_{k∘L⁻¹} of its orbit's
	// base component.
	grp := s.SymGroup()
	var vals []int
	var views []*ptg.Views
	for i := 0; i < s.Len(); i++ {
		ci, li := int(d.CompOf[i]), grp.Inv(d.Labels[i])
		for k := 0; k < grp.Order(); k++ {
			if v := m.twinValue(ci, grp.Mul(uint8(k), li)); v >= 0 {
				vals = append(vals, v)
				views = append(views, s.PseudoViews(i, k))
			}
		}
	}
	best := -1
	for a := range vals {
		for b := a + 1; b < len(vals); b++ {
			if vals[b] == vals[a] {
				continue
			}
			if l := ptg.MinAgreeLevel(views[a], views[b]); l > best {
				best = l
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// ComponentValue returns the decision value assigned to component ci of
// the reference decomposition (-1 for mixed components) — under a
// quotient, to the base component of orbit ci.
func (m *DecisionMap) ComponentValue(ci int) int { return m.assignment[ci] }

// CrossDecisionLevel measures the separation of a *fixed* algorithm's
// decision sets over a (possibly deeper) space: it runs the universal
// algorithm on every item of s and returns the largest agreement level
// over pairs of runs that decided different values, so the minimum
// distance between the realized decision sets Γ(v) is 2^-level. This is
// Corollary 6.1 made measurable: for a compact solvable adversary the
// level stays constant as the horizon grows (Fig. 4), while rebuilding the
// algorithm along a deadline family lets it grow without bound (Fig. 5).
// The space must share the map's interner.
func CrossDecisionLevel(m *DecisionMap, s *topo.Space) (int, bool, error) {
	_, values, err := m.DecisionRounds(s)
	if err != nil {
		return 0, false, err
	}
	// DecisionRounds rows enumerate every twin on quotiented spaces;
	// mirror its indexing so every orbit member joins the pair scan.
	mult := s.SymOrder()
	idx := make([]int, 0, len(values))
	views := make([]*ptg.Views, 0, len(values))
	for pi := range values {
		if values[pi][0] >= 0 {
			idx = append(idx, pi)
			views = append(views, s.PseudoViews(pi/mult, pi%mult))
		}
	}
	best := -1
	for a := range idx {
		vi := values[idx[a]][0]
		for b := a + 1; b < len(idx); b++ {
			if values[idx[b]][0] == vi {
				continue
			}
			if l := ptg.MinAgreeLevel(views[a], views[b]); l > best {
				best = l
			}
		}
	}
	if best < 0 {
		return 0, false, nil
	}
	return best, true, nil
}
