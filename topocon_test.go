package topocon_test

import (
	"context"
	"fmt"
	"testing"

	"topocon"
)

// TestFacadeLossyLink exercises the public API end to end on the two
// headline examples.
func TestFacadeLossyLink(t *testing.T) {
	res, err := topocon.CheckConsensus(topocon.LossyLink2(), topocon.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != topocon.VerdictSolvable {
		t.Fatalf("{<-,->}: %v, want solvable", res.Verdict)
	}
	res3, err := topocon.CheckConsensus(topocon.LossyLink3(), topocon.CheckOptions{MaxHorizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Verdict != topocon.VerdictImpossible {
		t.Fatalf("{<-,<->,->}: %v, want impossible", res3.Verdict)
	}
}

// TestFacadeSimulation runs the universal algorithm through the public
// simulator entry points.
func TestFacadeSimulation(t *testing.T) {
	adv := topocon.LossyLink2()
	res, err := topocon.CheckConsensus(adv, topocon.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	factory := topocon.NewFullInfo(res.Rule)
	run := topocon.NewRun([]int{0, 1}).Extend(topocon.RightGraph).Extend(topocon.LeftGraph)
	tr := topocon.Execute(factory, run)
	if violations := topocon.CheckProperties(tr, true); len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
}

// TestFacadeLasso exercises the exact-lasso API.
func TestFacadeLasso(t *testing.T) {
	a, err := topocon.NewLassoRun([]int{0, 0}, topocon.RepeatWord(topocon.RightGraph))
	if err != nil {
		t.Fatal(err)
	}
	b, err := topocon.NewLassoRun([]int{0, 1}, topocon.RepeatWord(topocon.RightGraph))
	if err != nil {
		t.Fatal(err)
	}
	if !topocon.LassoDistanceZero(a, b) {
		t.Error("hidden input flip must have distance 0")
	}
	analysis, err := topocon.AnalyzeFinite([]topocon.GraphWord{topocon.RepeatWord(topocon.NeitherGraph)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Solvable {
		t.Error("silent word must be unsolvable")
	}
}

// TestFacadeTopology exercises spaces, decompositions and renderings.
func TestFacadeTopology(t *testing.T) {
	s, err := topocon.BuildSpaceCtx(context.Background(), topocon.LossyLink2(), 2, 2, topocon.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := topocon.DecomposeCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MixedComponents()) != 0 {
		t.Error("unexpected mixed components under {<-,->}")
	}
	g := topocon.MustParseGraph(3, "1->2, 3->2")
	run := topocon.NewRun([]int{1, 0, 1}).Extend(g)
	if out := topocon.RenderPTGraph(run, 1, 1); out == "" {
		t.Error("empty rendering")
	}
}

// ExampleCheckConsensus is the quickstart of the README.
func ExampleCheckConsensus() {
	res, err := topocon.CheckConsensus(topocon.LossyLink2(), topocon.CheckOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict, "at horizon", res.SeparationHorizon)
	// Output: solvable at horizon 1
}
