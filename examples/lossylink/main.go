// The full n=2 lossy-link tour: the geometry behind Figures 3, 4 and 5 of
// the paper, computed on real runs — distances, ε-approximation
// components, the bivalent chain that kills {<-,<->,->}, and the fair
// limit sequence whose exclusion restores solvability.
package main

import (
	"context"
	"fmt"
	"log"

	"topocon"
)

func main() {
	distances()
	components()
	impossibility()
	fairLimit()
}

// check runs a full analysis session for adv.
func check(adv topocon.Adversary, opts ...topocon.AnalyzerOption) *topocon.CheckResult {
	an, err := topocon.NewAnalyzer(adv, opts...)
	if err != nil {
		log.Fatal(err)
	}
	res, err := an.Check(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// distances computes d_{p}, d_min, d_max on a run pair (cf. Figure 3).
func distances() {
	fmt.Println("== process-view distances ==")
	in := topocon.NewInterner()
	// Same graphs, inputs differ at process 2; process 1 hears nothing.
	a := topocon.NewRun([]int{0, 0}).Extend(topocon.RightGraph).Extend(topocon.RightGraph)
	b := topocon.NewRun([]int{0, 1}).Extend(topocon.RightGraph).Extend(topocon.RightGraph)
	va, vb := topocon.ComputeViews(in, a), topocon.ComputeViews(in, b)
	fmt.Printf("a = %v\nb = %v\n", a, b)
	fmt.Printf("d_{1}: agree through the whole prefix (exponent %d > rounds)\n",
		topocon.AgreeLevel(va, vb, 0))
	fmt.Printf("d_{2} = 2^-%d, d_min exponent %d, d_max = 2^-%d\n\n",
		topocon.AgreeLevel(va, vb, 1), topocon.MinAgreeLevel(va, vb),
		topocon.MaxAgreeLevel(va, vb))
}

// components shows the ε-approximation of Definition 6.2 at work for the
// solvable {<-,->}.
func components() {
	fmt.Println("== ε-approximation components of {<-,->} at horizon 1 ==")
	ctx := context.Background()
	s, err := topocon.BuildSpaceCtx(ctx, topocon.LossyLink2(), 2, 1, topocon.SpaceConfig{})
	if err != nil {
		log.Fatal(err)
	}
	d, err := topocon.DecomposeCtx(ctx, s)
	if err != nil {
		log.Fatal(err)
	}
	for ci := range d.Comps {
		c := &d.Comps[ci]
		fmt.Printf("component %d (valences %v):\n", ci, c.Valences)
		for _, i := range c.Members {
			fmt.Printf("  %v\n", s.RunOf(int(i)))
		}
	}
	fmt.Println()
}

// impossibility shows the certified bivalence proof for {<-,<->,->}.
func impossibility() {
	fmt.Println("== impossibility of {<-,<->,->} ==")
	res := check(topocon.LossyLink3(), topocon.WithMaxHorizon(5))
	fmt.Printf("verdict: %v\n", res.Verdict)
	fmt.Printf("mixed components persist: %d of %d at horizon %d\n",
		res.MixedComponents, res.Components, res.Horizon)
	fmt.Printf("certificate: %v\n\n", res.Certificate)
}

// fairLimit reproduces the Fig. 5 convergence: runs on both decision sides
// approach the excluded fair sequence.
func fairLimit() {
	fmt.Println("== fair limit (0,1)<->^ω (Definition 5.16) ==")
	fair, err := topocon.NewLassoRun([]int{0, 1}, topocon.RepeatWord(topocon.BothGraph))
	if err != nil {
		log.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		prefix := make([]topocon.Graph, k)
		for i := range prefix {
			prefix[i] = topocon.BothGraph
		}
		right, _ := topocon.NewGraphWord(prefix, []topocon.Graph{topocon.RightGraph})
		left, _ := topocon.NewGraphWord(prefix, []topocon.Graph{topocon.LeftGraph})
		ak, _ := topocon.NewLassoRun([]int{0, 1}, right)
		bk, _ := topocon.NewLassoRun([]int{0, 1}, left)
		fmt.Printf("k=%d: d(a_k,b_k)=2^-%d  d(a_k,r)=2^-%d  d(b_k,r)=2^-%d\n", k,
			topocon.LassoMinAgreeLevel(ak, bk),
			topocon.LassoMinAgreeLevel(ak, fair),
			topocon.LassoMinAgreeLevel(bk, fair))
	}
	fmt.Println("both families converge to r from different decision sides;")
	fmt.Println("r itself must not be admissible for consensus to be solvable.")
}
