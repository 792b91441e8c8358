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
	decide    map[ptg.ViewID]int
	// assignment[ci] is the value assigned to component ci of the
	// reference decomposition (-1 for mixed components).
	assignment []int
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
func BuildDecisionMap(d *topo.Decomposition, defaultValue int) *DecisionMap {
	s := d.Space
	mult := d.Mult
	if mult <= 1 {
		mult = 1
	}
	m := &DecisionMap{
		adv:        s.Adversary,
		interner:   s.Interner,
		reference:  s.Horizon,
		domain:     s.InputDomain,
		decide:     make(map[ptg.ViewID]int, s.Len()),
		assignment: make([]int, len(d.Comps)),
	}
	for ci := range d.Comps {
		c := &d.Comps[ci]
		switch len(c.Valences) {
		case 0:
			m.assignment[ci] = defaultValue
			if bc := c.Broadcasters & c.UniformInputs; bc != 0 {
				p := 0
				for bc&1 == 0 {
					bc >>= 1
					p++
				}
				// Members index pseudo-items on quotiented spaces
				// (DESIGN.md §13); the broadcaster's input lives in the
				// relabeled copy, not the representative.
				m.assignment[ci] = s.PseudoInput(c.Members[0]/mult, c.Members[0]%mult, p)
			}
		case 1:
			m.assignment[ci] = c.Valences[0]
		default:
			m.assignment[ci] = -1
		}
	}
	// A view bucket is decisive iff all its runs' components share one
	// assigned value. ViewIDs encode owner and time, so one table over
	// all (t, p) is sound. On quotiented spaces the fold must cover every
	// orbit member, not just the representative: the relabeled copies
	// contribute their own view rows (the representative's ids relabeled by
	// Interner.Relabel, at permuted positions the fold ignores), and a view
	// decisive among representatives alone could be mixed once a twin
	// reaches it.
	type bucket struct {
		value    int
		decisive bool
	}
	buckets := make(map[ptg.ViewID]bucket, s.Len()*s.N())
	in := s.Interner
	for i := 0; i < s.Len(); i++ {
		views := s.ViewsOf(i)
		for k := 0; k < mult; k++ {
			v := m.assignment[d.CompOf[i*mult+k]]
			for t := 0; t <= s.Horizon; t++ {
				for p := 0; p < s.N(); p++ {
					id := in.Relabel(views.ID(t, p), k)
					b, seen := buckets[id]
					switch {
					case !seen:
						buckets[id] = bucket{value: v, decisive: v >= 0}
					case b.decisive && b.value != v:
						buckets[id] = bucket{decisive: false}
					}
				}
			}
		}
	}
	for id, b := range buckets {
		if b.decisive {
			m.decide[id] = b.value
		}
	}
	return m
}

// Adversary returns the adversary the map was built for.
func (m *DecisionMap) Adversary() ma.Adversary { return m.adv }

// Interner returns the interner in which views must be computed for Decide
// lookups to be meaningful.
func (m *DecisionMap) Interner() *ptg.Interner { return m.interner }

// Reference returns the horizon of the space the map was compiled from.
func (m *DecisionMap) Reference() int { return m.reference }

// Size returns the number of decisive views.
func (m *DecisionMap) Size() int { return len(m.decide) }

// Decide returns the decision value for a view, if the view is decisive.
func (m *DecisionMap) Decide(id ptg.ViewID) (int, bool) {
	v, ok := m.decide[id]
	return v, ok
}

// DecisionRounds runs the universal algorithm over every run of the
// reference space and returns, for each run, the per-process decision
// times (-1 when a process has not decided by the reference horizon) and
// values. On quotiented spaces (DESIGN.md §13) the rows enumerate every
// orbit member — pseudo-item (i, k) lands at row i*SymOrder()+k — so the
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
					if v, ok := m.decide[views.ID(t, p)]; ok {
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
	// Materialize each assigned item's Views adapter once; the pair scan
	// then touches only shared row headers. On quotiented spaces the scan
	// covers every pseudo-item: cross-value pairs can relate two members
	// of the same orbit, so representatives alone would overstate the
	// separation level.
	mult := d.Mult
	if mult <= 1 {
		mult = 1
	}
	idx := make([]int, 0, len(d.CompOf))
	views := make([]*ptg.Views, 0, len(d.CompOf))
	for pi := 0; pi < len(d.CompOf); pi++ {
		if m.assignment[d.CompOf[pi]] >= 0 {
			idx = append(idx, pi)
			views = append(views, s.PseudoViews(pi/mult, pi%mult))
		}
	}
	best := -1
	for a := range idx {
		vi := m.assignment[d.CompOf[idx[a]]]
		for b := a + 1; b < len(idx); b++ {
			if vj := m.assignment[d.CompOf[idx[b]]]; vj == vi {
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
// the reference decomposition (-1 for mixed components).
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
	// DecisionRounds rows enumerate pseudo-items on quotiented spaces;
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
