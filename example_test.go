package topocon_test

import (
	"context"
	"fmt"

	"topocon"
)

// ExampleNewAnalyzer runs a cancellable analysis session with per-horizon
// progress reporting; the prefix space is refined incrementally instead of
// being re-enumerated at every horizon.
func ExampleNewAnalyzer() {
	an, err := topocon.NewAnalyzer(topocon.LossyLink2(),
		topocon.WithMaxHorizon(3),
		topocon.WithProgress(func(r topocon.HorizonReport) {
			fmt.Printf("horizon %d: %d runs, %d components\n", r.Horizon, r.Runs, r.Components)
		}))
	if err != nil {
		panic(err)
	}
	res, err := an.Check(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict, "at horizon", res.SeparationHorizon)
	// Output:
	// horizon 1: 8 runs, 4 components
	// solvable at horizon 1
}

// ExampleAnalyzeFinite applies Corollary 5.6 exactly to a finite message
// adversary given by ultimately-periodic words.
func ExampleAnalyzeFinite() {
	words := []topocon.GraphWord{
		topocon.RepeatWord(topocon.LeftGraph),
		topocon.RepeatWord(topocon.RightGraph),
	}
	analysis, err := topocon.AnalyzeFinite(words, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("solvable=%v components=%d\n", analysis.Solvable, len(analysis.Components))
	// Output: solvable=true components=4
}

// ExampleLassoDistanceZero decides d_min = 0 exactly on infinite runs: a
// hidden input flip under ->^ω is invisible to process 1 forever.
func ExampleLassoDistanceZero() {
	a, _ := topocon.NewLassoRun([]int{0, 0}, topocon.RepeatWord(topocon.RightGraph))
	b, _ := topocon.NewLassoRun([]int{0, 1}, topocon.RepeatWord(topocon.RightGraph))
	fmt.Println(topocon.LassoDistanceZero(a, b))
	// Output: true
}

// ExampleNewEventuallyStable checks the non-compact VSSC-style adversary:
// chaos until one stable root component persists for the window.
func ExampleNewEventuallyStable() {
	adv, err := topocon.NewEventuallyStable("demo",
		[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph}, // chaos
		[]topocon.Graph{topocon.RightGraph},                   // stable root {1}
		2)
	if err != nil {
		panic(err)
	}
	res, err := topocon.CheckConsensus(adv, topocon.CheckOptions{MaxHorizon: 5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%v via broadcaster %d\n", res.Verdict, res.Broadcaster+1)
	// Output: solvable via broadcaster 1
}

// ExampleDecomposeCtx computes the ε-approximation components of
// Definition 6.2 for the reduced lossy link at horizon 1.
func ExampleDecomposeCtx() {
	s, err := topocon.BuildSpaceCtx(context.Background(), topocon.LossyLink2(), 2, 1, topocon.SpaceConfig{})
	if err != nil {
		panic(err)
	}
	d, err := topocon.DecomposeCtx(context.Background(), s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("components=%d mixed=%d\n", len(d.Comps), len(d.MixedComponents()))
	// Output: components=4 mixed=0
}

// ExampleProveBivalent finds the machine-checked impossibility proof for
// an adversary containing the silent graph.
func ExampleProveBivalent() {
	adv, _ := topocon.NewOblivious("", []topocon.Graph{
		topocon.NeitherGraph, topocon.BothGraph,
	})
	_, found := topocon.ProveBivalent(adv, 2, 4)
	fmt.Println(found)
	// Output: true
}
