package ckpt

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/check"
	"topocon/internal/combi"
	"topocon/internal/ma"
	"topocon/internal/ptg"
	"topocon/internal/topo"
	"topocon/internal/uf"
)

// FuzzEngineEquivalence checks that the engine's optimizations cannot
// change an answer on generated adversaries. The fuzz input picks a seed
// for advgen.SymmetricOblivious (a random graph set on n ∈ {2, 3, 4}
// processes, closed under a permutation, so the process part of the
// quotient is nontrivial) or, when bit 5 of the shape is set, for
// advgen.WindowStableSymmetric (the same set behind a repetition
// obligation, an automaton with several states, so a wrong compiled state
// table shows). The same seed, drawn afresh, also picks an
// advgen.AsymmetricOblivious set, whose process group is trivial, so the
// value part of the quotient acts alone; every input checks both
// adversaries. Bit 7 of the shape asks for input domain 3 instead of 2;
// the shape also picks a horizon ≤ 4 and an interruption point k. The
// reference run analyses the full space in memory (WithNoSymmetry). The
// candidate runs the quotient — process automorphisms paired with input
// value permutations — through RunCheck under a 1 KiB pager budget, so
// rounds spill and fault back, is cancelled after horizon k and resumes
// from its checkpoint. Both must agree on the verdict, the separation and
// broadcast horizons, the final component counts and every horizon's runs,
// components and mixed components; on a solvable case the candidate's
// compiled decision map must decide every view of every full-space run —
// every process at every time up to the map's horizon — as the
// reference's does. Every horizon's run, component and mixed-component counts
// must equal naiveSpace's, which shares no code with the engine's
// decomposer or its compiled adversary, and so must the reference's last
// space's discharge rounds (Space.DoneAt, counted per round), which read
// the compiled table's Done flags. At the last horizon every component's
// Broadcasters must be the naive component's, whose heard masks come from
// the explicit cones (ptg.ConeOf), not the interner: on the reference's
// full space, and on the quotient of that horizon, where the member twins
// each component's labels name must lie in a naive component with its
// mask. The horizon is lowered until the full space holds at most 4096
// runs, so a case takes milliseconds.
func FuzzEngineEquivalence(f *testing.F) {
	// Shapes 6, 7, 14, 15, 22 and 23 ask for horizon 4 with k = 1, 2 and 3
	// on two and three processes. Three of these cases are cancelled and
	// resume; the other three finish by horizon k. Shapes 38 to 55 ask the
	// same of stateful adversaries, bit 6 asks for four processes and bit
	// 7 for three input values.
	for i, shape := range []uint8{6, 7, 14, 15, 22, 23, 38, 39, 46, 47, 54, 55, 70, 78, 86, 102, 110, 118,
		134, 135, 142, 143, 166, 167, 198} {
		f.Add(int64(i+1), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng, n := rand.New(rand.NewSource(seed)), 2+int(shape&1)
		if shape&64 != 0 {
			n = 4
		}
		var adv ma.Adversary = advgen.SymmetricOblivious(rng, n)
		if shape&32 != 0 {
			adv = advgen.WindowStableSymmetric(rng, n)
		}
		t.Run("symmetric", func(t *testing.T) { engineEquivalence(t, adv, shape) })
		asym := advgen.AsymmetricOblivious(rand.New(rand.NewSource(seed)), n)
		t.Run("asymmetric", func(t *testing.T) { engineEquivalence(t, asym, shape) })
	})
}

// engineEquivalence is FuzzEngineEquivalence's check of one adversary
// under the horizon, interruption point and input domain shape asks for.
func engineEquivalence(t *testing.T, adv ma.Adversary, shape uint8) {
	n := adv.N()
	opts := check.Options{MaxHorizon: 1 + int(shape>>1)%4}
	if shape&128 != 0 {
		opts.InputDomain = 3
	}
	resolved, err := opts.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	domain := resolved.InputDomain
	for opts.MaxHorizon > 1 && combi.CountWords(domain, n)*ma.CountPrefixes(adv, opts.MaxHorizon) > naiveMaxRuns {
		opts.MaxHorizon--
	}
	horizon := opts.MaxHorizon
	k := 1 + int(shape>>3)%horizon

	var wantReps []check.HorizonReport
	refOpts := opts
	refOpts.NoSymmetry = true
	ref, err := check.NewAnalyzer(adv, check.WithOptions(refOpts),
		check.WithProgress(func(r check.HorizonReport) { wantReps = append(wantReps, r) }))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Check(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	var gotReps []check.HorizonReport
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Dir: filepath.Join(t.TempDir(), "ckpt"), HotBytes: 1 << 10, OnHorizon: func(r check.HorizonReport) {
		gotReps = append(gotReps, r)
		if r.Horizon >= k {
			cancel()
		}
	}}
	got, _, err := RunCheck(ctx, adv, cfg, opts, 0)
	if errors.Is(err, context.Canceled) {
		var info *Info
		got, info, err = RunCheck(context.Background(), adv, cfg, opts, 0)
		if err == nil && (!info.Resumed || info.ResumedAt != k) {
			t.Fatalf("resumed=%v at horizon %d, want a resume at %d", info.Resumed, info.ResumedAt, k)
		}
	}
	if err != nil {
		t.Fatalf("candidate run (interrupted after horizon %d): %v", k, err)
	}

	if got.Verdict != want.Verdict || got.SeparationHorizon != want.SeparationHorizon ||
		got.BroadcastHorizon != want.BroadcastHorizon || got.Components != want.Components ||
		got.MixedComponents != want.MixedComponents {
		t.Fatalf("n=%d horizon %d k=%d: candidate %v sep=%d bcast=%d comps=%d mixed=%d, reference %v sep=%d bcast=%d comps=%d mixed=%d",
			adv.N(), horizon, k, got.Verdict, got.SeparationHorizon, got.BroadcastHorizon, got.Components, got.MixedComponents,
			want.Verdict, want.SeparationHorizon, want.BroadcastHorizon, want.Components, want.MixedComponents)
	}
	if want.Map != nil {
		if err := sameDecisions(got, want); err != nil {
			t.Fatalf("n=%d domain %d horizon %d k=%d: %v", adv.N(), domain, horizon, k, err)
		}
	}
	if len(gotReps) != len(wantReps) {
		t.Fatalf("n=%d horizon %d k=%d: candidate reported %d horizons, reference %d", adv.N(), horizon, k, len(gotReps), len(wantReps))
	}
	for i, w := range wantReps {
		if g := gotReps[i]; g.Horizon != w.Horizon || g.Runs != w.Runs ||
			g.Components != w.Components || g.MixedComponents != w.MixedComponents {
			t.Fatalf("n=%d horizon %d k=%d: report %d is horizon %d runs=%d comps=%d mixed=%d, reference horizon %d runs=%d comps=%d mixed=%d",
				adv.N(), horizon, k, i, g.Horizon, g.Runs, g.Components, g.MixedComponents,
				w.Horizon, w.Runs, w.Components, w.MixedComponents)
		}
		if w.Runs > naiveMaxRuns {
			continue
		}
		last := w.Horizon == ref.Horizon()
		nv := naiveSpace(adv, domain, w.Horizon, last)
		if w.Runs != nv.runs || w.Components != nv.comps || w.MixedComponents != nv.mixed {
			t.Fatalf("n=%d horizon %d: the engine reports runs=%d comps=%d mixed=%d, the naive oracle %d, %d and %d",
				adv.N(), w.Horizon, w.Runs, w.Components, w.MixedComponents, nv.runs, nv.comps, nv.mixed)
		}
		if !last {
			continue
		}
		space := ref.SpaceAt(w.Horizon)
		doneAt := make(map[int]int)
		for i := 0; i < space.Len(); i++ {
			doneAt[space.DoneAt(i)]++
		}
		if !maps.Equal(doneAt, nv.doneAt) {
			t.Fatalf("n=%d horizon %d: the engine's runs discharge at rounds %v, the naive oracle's at %v",
				adv.N(), w.Horizon, doneAt, nv.doneAt)
		}
		quotient, err := topo.BuildCtx(context.Background(), adv, domain, w.Horizon, topo.Config{Symmetry: ma.Automorphisms(adv)})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*topo.Space{space, quotient} {
			if err := checkBroadcasters(s, nv.bcast); err != nil {
				t.Fatalf("n=%d horizon %d, group order %d: %v", adv.N(), w.Horizon, s.SymOrder(), err)
			}
		}
	}
}

// sameDecisions requires the quotient session got's compiled decision map
// to decide every view of every full-space run of its reference space —
// every process at every time up to the map's horizon — as the full-space
// session want's map decides the same run's view. The candidate's views
// are recomputed in its map's interner from the run itself
// (ptg.ComputeViews), which finds every cone already stored: got's
// checkpoint, and with it its paged rounds, is gone once RunCheck
// succeeds.
func sameDecisions(got, want *check.Result) error {
	if got.Map == nil || got.Map.Reference() != want.Map.Reference() || got.Map.Size() != want.Map.Size() {
		return fmt.Errorf("decision maps differ: candidate %v, reference at horizon %d with %d decisive views",
			got.Map != nil, want.Map.Reference(), want.Map.Size())
	}
	ws := want.Space
	for i := 0; i < ws.Len(); i++ {
		run := ws.RunOf(i)
		wv, gv := ws.ViewsOf(i), ptg.ComputeViews(got.Map.Interner(), run)
		for t := 0; t <= want.Map.Reference(); t++ {
			for p := 0; p < ws.N(); p++ {
				w, wok := want.Map.Decide(wv.ID(t, p))
				g, gok := got.Map.Decide(gv.ID(t, p))
				if w != g || wok != gok {
					return fmt.Errorf("run %v, process %d at time %d: the candidate decides %d (%v), the reference %d (%v)",
						run, p, t, g, gok, w, wok)
				}
			}
		}
	}
	return nil
}

// checkBroadcasters decomposes s and requires every component's
// Broadcasters to be the mask bcast gives its base's runs: the twin of
// each member its label names lies in the base component.
func checkBroadcasters(s *topo.Space, bcast map[string]uint64) error {
	d, err := topo.DecomposeCtx(context.Background(), s)
	if err != nil {
		return err
	}
	for ci, c := range d.Comps {
		for _, i := range c.Members {
			run := s.PseudoRun(int(i), int(d.Labels[i]))
			if want, ok := bcast[run.Key()]; !ok || c.Broadcasters != want {
				return fmt.Errorf("component %d has broadcasters %#x, the naive component of its run %v %#x (found %v)",
					ci, c.Broadcasters, run, want, ok)
			}
		}
	}
	return nil
}

// naiveMaxRuns bounds the full spaces naiveSpace is asked about.
const naiveMaxRuns = 4096

// naiveCounts is what naiveSpace derives of a horizon-t space.
type naiveCounts struct {
	runs, comps, mixed int
	// doneAt counts the runs by the round their obligations were
	// discharged at, -1 for pending.
	doneAt map[int]int
	// bcast maps each run's Key to its component's broadcasters: the
	// processes whose leaf lies in every process's time-t cone in every
	// run of the component (Definition 5.8 at the horizon). Filled only
	// when asked for.
	bcast map[string]uint64
}

// naiveSpace is the reference decomposition of FuzzEngineEquivalence,
// built from the paper's definitions alone: it enumerates the full
// horizon-t space (every admissible prefix of the adversary's interface
// under every input vector), computes every process's view of every run
// with ptg.ComputeViews on a fresh plain interner, and joins runs that
// share a (process, view) pair in a plain union-find (Definition 6.2 at
// the horizon). It counts the runs, the components and the mixed ones,
// which hold v-valent runs (every input v) for two values v, and the runs
// per discharge round; with broadcasters set, it also folds every
// component's broadcasters from the explicit cones of ptg.ConeOf.
func naiveSpace(adv ma.Adversary, domain, t int, broadcasters bool) naiveCounts {
	n := adv.N()
	var runs []ptg.Run
	doneAt := make(map[int]int)
	ma.EnumeratePrefixes(adv, t, func(p ma.Prefix) bool {
		combi.Words(domain, n, func(inputs []int) bool {
			runs = append(runs, ptg.Run{Inputs: slices.Clone(inputs), Graphs: slices.Clone(p.Graphs)})
			doneAt[p.DoneAt]++
			return true
		})
		return true
	})
	in := ptg.NewInterner()
	u := uf.New(len(runs))
	holder := make(map[[2]int]int) // (process, view) -> the first run holding it
	for i, r := range runs {
		views := ptg.ComputeViews(in, r)
		for p := 0; p < n; p++ {
			key := [2]int{p, int(views.ID(t, p))}
			if j, ok := holder[key]; ok {
				u.Union(i, j)
			} else {
				holder[key] = i
			}
		}
	}
	valences := make(map[int]map[int]bool) // root -> the valences of its runs
	for i, r := range runs {
		root := u.Find(i)
		if _, ok := valences[root]; !ok {
			valences[root] = make(map[int]bool)
		}
		if v := r.Inputs[0]; !slices.ContainsFunc(r.Inputs, func(x int) bool { return x != v }) {
			valences[root][v] = true
		}
	}
	mixed := 0
	for _, vs := range valences {
		if len(vs) >= 2 {
			mixed++
		}
	}
	nc := naiveCounts{runs: len(runs), comps: len(valences), mixed: mixed, doneAt: doneAt}
	if broadcasters {
		all := uint64(1)<<uint(n) - 1
		compMask := make(map[int]uint64) // root -> the component's broadcasters
		for i, r := range runs {
			m, ok := compMask[u.Find(i)]
			if !ok {
				m = all
			}
			for p := 0; p < n; p++ {
				cone := ptg.ConeOf(r, p, t)
				for q := 0; q < n; q++ {
					if !cone.ContainsInitial(q) {
						m &^= 1 << uint(q)
					}
				}
			}
			compMask[u.Find(i)] = m
		}
		nc.bcast = make(map[string]uint64, len(runs))
		for i, r := range runs {
			nc.bcast[r.Key()] = compMask[u.Find(i)]
		}
	}
	return nc
}
