package check_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/check"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/topo"
)

// TestOrbitDecompositionMatchesFullSpace pins the orbit decomposition
// (DESIGN.md §13) against the full space on the corpus's symmetric
// adversaries and on generated ones: at every horizon, DecomposeCtx of
// the quotiented space, expanded to full-space runs, must give the
// NoSymmetry decomposition's partition, per-component Valences,
// Broadcasters and UniformInputs, and component counts; and the decision
// maps compiled from the two must agree in Size() and in Decide on every
// view of every full-space run.
func TestOrbitDecompositionMatchesFullSpace(t *testing.T) {
	type tc struct {
		adv     ma.Adversary
		horizon int
	}
	cases := []tc{
		{advgen.LossyStar4(), 5},
		{ma.LossBounded(3, 1), 3},
		{ma.MustFilter(ma.Unrestricted(3), "strongly-connected-3", ma.PredStronglyConnected()), 2},
	}
	rng := rand.New(rand.NewSource(13))
	for len(cases) < 3+12 {
		cases = append(cases, tc{advgen.SymmetricOblivious(rng, 2+len(cases)%3), 3})
	}
	for ci, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%d-%s", ci, c.adv.Name()), func(t *testing.T) {
			grp := ma.Automorphisms(c.adv)
			if grp.Trivial() {
				t.Fatalf("%v: trivial automorphism group", c.adv.Name())
			}
			ctx := context.Background()
			q, err := topo.BuildCtx(ctx, c.adv, 2, 1, topo.Config{Symmetry: grp})
			if err != nil {
				t.Fatal(err)
			}
			full, err := topo.BuildCtx(ctx, c.adv, 2, 1, topo.Config{Symmetry: ma.TrivialGroup(c.adv.N())})
			if err != nil {
				t.Fatal(err)
			}
			for h := 1; h <= c.horizon; h++ {
				if h > 1 {
					if q, err = q.Extend(ctx, h); err != nil {
						t.Fatal(err)
					}
					if full, err = full.Extend(ctx, h); err != nil {
						t.Fatal(err)
					}
				}
				got, err := topo.DecomposeCtx(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := topo.DecomposeCtx(ctx, full)
				if err != nil {
					t.Fatal(err)
				}
				assertOrbitsExpandTo(t, fmt.Sprintf("h=%d", h), got, want)
			}
		})
	}
}

// assertOrbitsExpandTo expands every component orbit of dq into its twins
// and compares them with the full-space decomposition df.
func assertOrbitsExpandTo(t *testing.T, name string, dq, df *topo.Decomposition) {
	t.Helper()
	q, full := dq.Space, df.Space
	sym := q.SymGroup()
	m := sym.Order()
	if got, want := dq.FullComponents(), len(df.Comps); got != want {
		t.Fatalf("%s: %d full components from %d orbits, full space has %d", name, got, len(dq.Comps), want)
	}
	if got, want := dq.FullMixedComponents(), len(df.MixedComponents()); got != want {
		t.Fatalf("%s: %d mixed full components, full space has %d", name, got, want)
	}
	fullIdx := make(map[string]int, full.Len())
	for i := 0; i < full.Len(); i++ {
		fullIdx[full.RunOf(i).Key()] = i
	}
	// twinOf[fi] names the full component of full run fi as (orbit, least
	// element of its coset of the orbit's stabilizer); compOf maps it to
	// the full decomposition's component.
	type twin struct {
		orbit int
		g     uint8
	}
	compOf := map[twin]int{}
	mq := check.BuildDecisionMap(dq, 0)
	mf := check.BuildDecisionMap(df, 0)
	if mq.Size() != mf.Size() {
		t.Fatalf("%s: decision map Size %d, full space %d", name, mq.Size(), mf.Size())
	}
	seen := make([]bool, full.Len())
	for i := 0; i < q.Len(); i++ {
		ci := int(dq.CompOf[i])
		c := &dq.Comps[ci]
		li := sym.Inv(dq.Labels[i])
		for k := 0; k < m; k++ {
			fi, ok := fullIdx[q.PseudoRun(i, k).Key()]
			if !ok {
				t.Fatalf("%s: twin (%d,%d) is not a full-space run", name, i, k)
			}
			seen[fi] = true
			g := sym.MinCoset(1, sym.Mul(uint8(k), li), c.Stab)
			key := twin{ci, g}
			fc, ok := compOf[key]
			if !ok {
				fc = int(df.CompOf[fi])
				compOf[key] = fc
				want := &df.Comps[fc]
				// The twin relabels processes by g's process part and
				// valences by its value part.
				perm := sym.Elem(int(g))
				var valences []int
				for _, v := range c.Valences {
					valences = append(valences, sym.Value(int(g), v))
				}
				slices.Sort(valences)
				if !equalInts(valences, want.Valences) ||
					graph.PermuteMask(c.Broadcasters, perm) != want.Broadcasters ||
					graph.PermuteMask(c.UniformInputs, perm) != want.UniformInputs {
					t.Fatalf("%s: twin %d of orbit %d summarizes to %v/%b/%b, full component %+v",
						name, g, ci, valences, graph.PermuteMask(c.Broadcasters, perm),
						graph.PermuteMask(c.UniformInputs, perm), *want)
				}
			} else if fc != int(df.CompOf[fi]) {
				t.Fatalf("%s: twin %d of orbit %d spans full components %d and %d", name, g, ci, fc, df.CompOf[fi])
			}
			qv, fv := q.PseudoViews(i, k), full.ViewsOf(fi)
			for tt := 0; tt <= q.Horizon; tt++ {
				for p := 0; p < q.N(); p++ {
					qd, qok := mq.Decide(qv.ID(tt, p))
					fd, fok := mf.Decide(fv.ID(tt, p))
					if qok != fok || qd != fd {
						t.Fatalf("%s: run %d view (t=%d, p=%d) decides %d/%v, full space %d/%v",
							name, fi, tt, p, qd, qok, fd, fok)
					}
				}
			}
		}
	}
	for fi, ok := range seen {
		if !ok {
			t.Fatalf("%s: full run %d is no twin of a representative", name, fi)
		}
	}
	// Distinct twins map to distinct full components, and every full
	// component is some twin: the expansion is a bijection.
	if len(compOf) != len(df.Comps) {
		t.Fatalf("%s: %d twins of orbits, %d full components", name, len(compOf), len(df.Comps))
	}
	hit := make(map[int]bool, len(compOf))
	for _, fc := range compOf {
		if hit[fc] {
			t.Fatalf("%s: two twins expand to full component %d", name, fc)
		}
		hit[fc] = true
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
