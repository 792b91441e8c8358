package ckpt

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/check"
	"topocon/internal/ma"
)

// FuzzEngineEquivalence checks that the engine's optimizations cannot
// change an answer on generated adversaries. The fuzz input picks a seed
// for advgen.SymmetricOblivious (a random graph set on n ∈ {2, 3}
// processes, closed under a permutation, so the quotient is nontrivial), a
// horizon ≤ 4 and an interruption point k. The reference run analyses the
// full space in memory (WithNoSymmetry). The candidate runs the quotient
// through RunCheck under a 1 KiB pager budget, so rounds spill and fault
// back, is cancelled after horizon k and resumes from its checkpoint. Both
// must agree on the verdict, the separation and broadcast horizons, the
// final component counts and every horizon's runs, components and mixed
// components. The horizon is lowered until a space holds at most 512
// prefixes per input vector, so a case takes milliseconds.
func FuzzEngineEquivalence(f *testing.F) {
	// Shapes 6, 7, 14, 15, 22 and 23 ask for horizon 4 with k = 1, 2 and 3
	// on two and three processes. Three of these cases are cancelled and
	// resume; the other three finish by horizon k.
	for i, shape := range []uint8{6, 7, 14, 15, 22, 23} {
		f.Add(int64(i+1), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		adv := advgen.SymmetricOblivious(rand.New(rand.NewSource(seed)), 2+int(shape&1))
		horizon := 1 + int(shape>>1)%4
		for horizon > 1 && ma.CountPrefixes(adv, horizon) > 512 {
			horizon--
		}
		k := 1 + int(shape>>3)%horizon
		opts := check.Options{MaxHorizon: horizon}

		var wantReps []check.HorizonReport
		ref, err := check.NewAnalyzer(adv, check.WithOptions(check.Options{MaxHorizon: horizon, NoSymmetry: true}),
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
		}
	})
}
