package topocon_test

import (
	"context"
	"path/filepath"
	"testing"

	"topocon"
)

// TestRefineMatchesDecompose extends the incremental-decomposition
// invariant suite (internal/topo runs it over the seed families) to the
// full scenarios/ corpus — concrete specs and every sweep-template grid
// cell: for every workload, refining the horizon-t partition into the
// one-round extension must equal the from-scratch decomposition at t+1 —
// same partition, valences, broadcasters and uniform inputs — at every
// horizon of the spec's own analysis budget.
func TestRefineMatchesDecompose(t *testing.T) {
	type workload struct {
		name string
		sc   *topocon.Scenario
	}
	files, templates := corpusFiles(t)
	if len(files) < 8 {
		t.Fatalf("scenario corpus has %d concrete specs, want >= 8", len(files))
	}
	var workloads []workload
	for _, file := range files {
		sc, err := topocon.LoadScenario(file)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, workload{name: filepath.Base(file), sc: sc})
	}
	for _, file := range templates {
		tpl, err := topocon.LoadTemplate(file)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := tpl.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			workloads = append(workloads, workload{name: cell.Scenario.Name, sc: cell.Scenario})
		}
	}
	ctx := context.Background()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			sc := w.sc
			domain := sc.Options.InputDomain
			if domain == 0 {
				domain = 2
			}
			maxHorizon := sc.Options.MaxHorizon
			if maxHorizon == 0 {
				maxHorizon = 5
			}
			s, err := topocon.BuildSpaceCtx(ctx, sc.Adversary, domain, 1,
				topocon.SpaceConfig{MaxRuns: sc.Options.MaxRuns})
			if err != nil {
				t.Fatal(err)
			}
			d, err := topocon.DecomposeCtx(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			for horizon := 2; horizon <= maxHorizon; horizon++ {
				child, err := s.Extend(ctx, horizon)
				if err != nil {
					t.Fatalf("Extend to %d: %v", horizon, err)
				}
				refined, err := d.Refine(ctx, child)
				if err != nil {
					t.Fatalf("Refine to %d: %v", horizon, err)
				}
				scratch, err := topocon.DecomposeCtx(ctx, child)
				if err != nil {
					t.Fatal(err)
				}
				assertSameDecomposition(t, horizon, scratch, refined)
				s, d = child, refined
			}
		})
	}
}

func assertSameDecomposition(t *testing.T, horizon int, want, got *topocon.Decomposition) {
	t.Helper()
	if len(want.Comps) != len(got.Comps) {
		t.Fatalf("horizon %d: %d components, refine found %d",
			horizon, len(want.Comps), len(got.Comps))
	}
	for i := range want.CompOf {
		if want.CompOf[i] != got.CompOf[i] {
			t.Fatalf("horizon %d item %d: component %d vs %d",
				horizon, i, want.CompOf[i], got.CompOf[i])
		}
	}
	for ci := range want.Comps {
		w, g := &want.Comps[ci], &got.Comps[ci]
		if !equalInts(w.Members, g.Members) || !equalInts(w.Valences, g.Valences) ||
			w.Broadcasters != g.Broadcasters || w.UniformInputs != g.UniformInputs {
			t.Fatalf("horizon %d component %d differs:\nscratch %+v\nrefined %+v",
				horizon, ci, w, g)
		}
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
