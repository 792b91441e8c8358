// Command experiments regenerates every experiment of EXPERIMENTS.md: one
// section per figure/claim of the paper (E1–E11), printed as markdown. Run
// with -only E5 to restrict to one experiment.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"

	"topocon"
	"topocon/internal/combi"
	"topocon/internal/graph"
	"topocon/internal/ma"
)

// ctx is the run-wide context: Ctrl-C cancels the current analysis session
// instead of killing the process mid-table.
var ctx context.Context

func main() {
	only := flag.String("only", "", "run only the given experiment id (e.g. E5)")
	flag.Parse()
	var stop context.CancelFunc
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	run(*only)
}

// run prints every experiment, or only the one whose id is only, to
// standard output.
func run(only string) {
	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"E1", "process-time graph and views (Fig. 2)", e1},
		{"E2", "process-view distances (Fig. 3)", e2},
		{"E3", "lossy link {<-,<->,->}: impossibility (Sec. 6.1 / [21])", e3},
		{"E4", "reduced lossy link {<-,->}: solvable in one round (Sec. 6.1 / [8])", e4},
		{"E5", "oblivious sweep: separation = broadcastability (Thm. 6.6)", e5},
		{"E6", "compact gap vs non-compact collapse (Figs. 4 & 5)", e6},
		{"E7", "fair limit exclusion: committed-suffix family (Sec. 6.3 / [9])", e7},
		{"E8", "eventually-stable root components (Sec. 6.3 / [23])", e8},
		{"E9", "universal algorithm in the simulator (Thm. 5.5)", e9},
		{"E10", "exact finite adversaries (Cor. 5.6)", e10},
		{"E11", "message-loss thresholds (Sec. 1 / [21, 22])", e11},
		{"E12", "adversary algebra: conjunction of obligations, sequencing, filters", e12},
	}
	for _, e := range experiments {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		fmt.Printf("## %s — %s\n\n", e.id, e.name)
		e.run()
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func checked(adv topocon.Adversary, opts topocon.CheckOptions) *topocon.CheckResult {
	an, err := topocon.NewAnalyzer(adv, topocon.WithCheckOptions(opts))
	if err != nil {
		fail(err)
	}
	res, err := an.Check(ctx)
	if err != nil {
		fail(err)
	}
	return res
}

// e1 renders the paper's Figure 2: the process-time graph at t=2 with
// n=3 and inputs x=(1,0,1), highlighting process 1's view.
func e1() {
	g1 := topocon.MustParseGraph(3, "1->2, 3->2")
	g2 := topocon.MustParseGraph(3, "2->1, 2->3")
	run := topocon.NewRun([]int{1, 0, 1}).Extend(g1).Extend(g2)
	fmt.Println("Process-time graph, x=(1,0,1), rounds [1->2 3->2], [2->1 2->3];")
	fmt.Println("process 1's view V_{1}(PT^2) marked with '*':")
	fmt.Println("```")
	fmt.Print(topocon.RenderPTGraph(run, 2, 0))
	fmt.Println("```")
	cone := topocon.ConeOf(run, 0, 2)
	fmt.Printf("view size: %d process-time nodes; initial values heard by process 1: ", cone.Size())
	heard := make([]string, 0, 3)
	for q := 0; q < 3; q++ {
		if cone.ContainsInitial(q) {
			heard = append(heard, fmt.Sprintf("x%d", q+1))
		}
	}
	fmt.Println(strings.Join(heard, ", "))
}

// e2 reproduces Figure 3's distance values exactly.
func e2() {
	g1 := topocon.MustParseGraph(3, "3->2")
	g2 := topocon.MustParseGraph(3, "2->1")
	alpha := topocon.NewRun([]int{0, 0, 0}).Extend(g1).Extend(g2)
	beta := topocon.NewRun([]int{0, 0, 1}).Extend(g1).Extend(g2)
	in := topocon.NewInterner()
	va := topocon.ComputeViews(in, alpha)
	vb := topocon.ComputeViews(in, beta)
	fmt.Println("α = x(0,0,0), β = x(0,0,1), both with G1=[3->2], G2=[2->1]")
	fmt.Println()
	fmt.Println("| quantity | first difference | distance | paper |")
	fmt.Println("|---|---|---|---|")
	row := func(name string, level int, paper string) {
		fmt.Printf("| %s | t=%d | 2^-%d | %s |\n", name, level, level, paper)
	}
	row("d_{3}", topocon.AgreeLevel(va, vb, 2), "1")
	row("d_{2}", topocon.AgreeLevel(va, vb, 1), "1/2")
	row("d_{1}", topocon.AgreeLevel(va, vb, 0), "1/4")
	row("d_max = d_[n]", topocon.MaxAgreeLevel(va, vb), "1")
	row("d_min", topocon.MinAgreeLevel(va, vb), "1/4")
}

// e3 shows the lossy-link impossibility: persistent mixed components and
// the pump certificate.
func e3() {
	fmt.Println("| horizon | runs | components | mixed | valent comps broadcastable |")
	fmt.Println("|---|---|---|---|---|")
	// One incremental session produces the whole per-horizon table: each
	// Step extends the previous horizon's space by one round.
	an, err := topocon.NewAnalyzer(topocon.LossyLink3(), topocon.WithMaxHorizon(5),
		topocon.WithProgress(func(r topocon.HorizonReport) {
			fmt.Printf("| %d | %d | %d | %d | %v |\n",
				r.Horizon, r.Runs, r.Components, r.MixedComponents, r.Broadcastable)
		}))
	if err != nil {
		fail(err)
	}
	res, err := an.Check(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nverdict: **%v** (exact=%v)\ncertificate: %v\n",
		res.Verdict, res.Exact, res.Certificate)
}

// e4 shows the one-round solvability of {<-,->}. The table lists every
// run of the horizon-1 space with its own decisions, so the session
// analyses the full space rather than one run per symmetry orbit.
func e4() {
	res := checked(topocon.LossyLink2(), topocon.CheckOptions{NoSymmetry: true})
	fmt.Printf("verdict: **%v** (exact=%v), separation horizon %d, broadcast horizon %d\n\n",
		res.Verdict, res.Exact, res.SeparationHorizon, res.BroadcastHorizon)
	times, values, err := res.Map.DecisionRounds(res.Space)
	if err != nil {
		fail(err)
	}
	fmt.Println("| run | decision rounds (p1,p2) | values |")
	fmt.Println("|---|---|---|")
	for i := 0; i < res.Space.Len(); i++ {
		fmt.Printf("| %v | %d,%d | %d,%d |\n", res.Space.RunOf(i),
			times[i][0], times[i][1], values[i][0], values[i][1])
	}
}

// e5 sweeps all oblivious n=2 adversaries plus structured n=3 samples,
// cross-checking the separation and broadcastability criteria.
func e5() {
	fmt.Println("All 15 non-empty graph subsets for n=2 (horizons up to 5):")
	fmt.Println()
	fmt.Println("| adversary | verdict | separation | broadcast | components | certificate |")
	fmt.Println("|---|---|---|---|---|---|")
	combi.Subsets(int(graph.CountAll(2)), func(mask uint64) bool {
		adv := ma.ObliviousFromMask(2, mask)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: 5})
		arrows := make([]string, 0, 4)
		for _, g := range adv.Graphs() {
			arrows = append(arrows, graph.Arrow(g))
		}
		cert := "-"
		switch res.Certificate.(type) {
		case *topocon.BivalenceCertificate:
			cert = "bounded chain"
		case *topocon.PumpCertificate:
			cert = "alternating pump"
		}
		fmt.Printf("| {%s} | %v | %d | %d | %d | %s |\n",
			strings.Join(arrows, ","), res.Verdict,
			res.SeparationHorizon, res.BroadcastHorizon, res.Components, cert)
		return true
	})
	fmt.Println()
	fmt.Println("Structured n=3 samples (horizons up to 4):")
	fmt.Println()
	fmt.Println("| adversary | verdict | separation | broadcast |")
	fmt.Println("|---|---|---|---|")
	samples := []struct {
		name string
		adv  topocon.Adversary
	}{
		{"{complete}", ma.MustOblivious("", graph.Complete(3))},
		{"{cycle}", ma.MustOblivious("", graph.Cycle(3))},
		{"{star1,star1+edge}", ma.MustOblivious("", graph.Star(3, 0), graph.Star(3, 0).AddEdge(1, 2))},
		{"{star1,star2}", ma.MustOblivious("", graph.Star(3, 0), graph.Star(3, 1))},
		{"{silent}", ma.MustOblivious("", graph.New(3))},
		{"{chain,cycle}", ma.MustOblivious("", graph.Chain(3), graph.Cycle(3))},
	}
	for _, s := range samples {
		res := checked(s.adv, topocon.CheckOptions{MaxHorizon: 4})
		fmt.Printf("| %s | %v | %d | %d |\n",
			s.name, res.Verdict, res.SeparationHorizon, res.BroadcastHorizon)
	}
}

// e6 contrasts the compact gap (Fig. 4) with the non-compact collapse
// (Fig. 5): cross-valence distances stay bounded for {<-,->}, and shrink
// as 2^-R along the committed-suffix family.
func e6() {
	fmt.Println("Compact solvable {<-,->}: the decision sets Γ(0), Γ(1) of the *fixed*")
	fmt.Println("universal algorithm stay 2^-1 apart at every horizon (Corollary 6.1,")
	fmt.Println("Fig. 4):")
	fmt.Println()
	fmt.Println("| horizon | min distance between decision sets |")
	fmt.Println("|---|---|")
	// Check stops at the separation horizon; the same session then keeps
	// refining past the verdict, and every SpaceAt space shares the
	// compiled decision map's interner by construction.
	an2, err := topocon.NewAnalyzer(topocon.LossyLink2(), topocon.WithMaxHorizon(5))
	if err != nil {
		fail(err)
	}
	res2, err := an2.Check(ctx)
	if err != nil {
		fail(err)
	}
	for horizon := 1; horizon <= 5; horizon++ {
		for an2.Horizon() < horizon {
			if _, err := an2.Step(ctx); err != nil {
				fail(err)
			}
		}
		level, ok, err := topocon.CrossDecisionLevel(res2.Map, an2.SpaceAt(horizon))
		if err != nil || !ok {
			fail(fmt.Errorf("no cross-decision pairs at horizon %d: %v", horizon, err))
		}
		fmt.Printf("| %d | 2^-%d |\n", horizon, level)
	}
	fmt.Println()
	fmt.Println("Committed-suffix family (free {<-,->,<->}, committed {<-,->}): the")
	fmt.Println("distance between the compiled decision sets PS(0), PS(1) shrinks as")
	fmt.Println("2^-R — in the non-compact union the decision sets have distance 0 and")
	fmt.Println("the fair limit sequences must be excluded (Fig. 5):")
	fmt.Println()
	fmt.Println("| deadline R | min distance between decision sets |")
	fmt.Println("|---|---|")
	free := []topocon.Graph{topocon.LeftGraph, topocon.RightGraph, topocon.BothGraph}
	commit := []topocon.Graph{topocon.LeftGraph, topocon.RightGraph}
	for _, deadline := range []int{1, 2, 3, 4} {
		adv := ma.MustCommittedSuffix("", free, commit, deadline)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: deadline + 2})
		level, ok := res.Map.CrossAssignmentLevel(res.Decomposition)
		if !ok {
			fail(fmt.Errorf("no cross-assignment pairs at deadline %d", deadline))
		}
		fmt.Printf("| %d | 2^-%d |\n", deadline, level)
	}
}

// e7 is the Fevat-Godard exclusion story: solvable committed families with
// growing decision times, plus the exact convergence to the fair limit.
func e7() {
	free := []topocon.Graph{topocon.LeftGraph, topocon.RightGraph, topocon.BothGraph}
	commit := []topocon.Graph{topocon.LeftGraph, topocon.RightGraph}
	fmt.Println("Committed-suffix family over the (impossible) lossy link:")
	fmt.Println()
	fmt.Println("| deadline R | verdict | separation horizon | components |")
	fmt.Println("|---|---|---|---|")
	for _, deadline := range []int{1, 2, 3, 4} {
		adv := ma.MustCommittedSuffix("", free, commit, deadline)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: 7})
		fmt.Printf("| %d | %v | %d | %d |\n",
			deadline, res.Verdict, res.SeparationHorizon, res.Components)
	}
	fmt.Println()
	fmt.Println("Exact lasso convergence to the excluded fair limit r = (0,1)<->^ω:")
	fmt.Println("a_k = (0,1)<->^k ->^ω and b_k = (0,1)<->^k <-^ω (Definition 5.16):")
	fmt.Println()
	fmt.Println("| k | d_min(a_k, b_k) | d_min(a_k, r) | d_min(b_k, r) |")
	fmt.Println("|---|---|---|---|")
	fair, err := topocon.NewLassoRun([]int{0, 1}, topocon.RepeatWord(topocon.BothGraph))
	if err != nil {
		fail(err)
	}
	for k := 1; k <= 6; k++ {
		prefix := make([]topocon.Graph, k)
		for i := range prefix {
			prefix[i] = topocon.BothGraph
		}
		wa, err := topocon.NewGraphWord(prefix, []topocon.Graph{topocon.RightGraph})
		if err != nil {
			fail(err)
		}
		wb, err := topocon.NewGraphWord(prefix, []topocon.Graph{topocon.LeftGraph})
		if err != nil {
			fail(err)
		}
		ak, _ := topocon.NewLassoRun([]int{0, 1}, wa)
		bk, _ := topocon.NewLassoRun([]int{0, 1}, wb)
		fmt.Printf("| %d | 2^-%d | 2^-%d | 2^-%d |\n", k,
			topocon.LassoMinAgreeLevel(ak, bk),
			topocon.LassoMinAgreeLevel(ak, fair),
			topocon.LassoMinAgreeLevel(bk, fair))
	}
}

// e8 sweeps eventually-stable adversaries: solvable once the stability
// window suffices for the root broadcast, with the deadline family showing
// unbounded decision times.
func e8() {
	fmt.Println("n=2, chaos {<-,<->}, stable {->} (root = process 1):")
	fmt.Println()
	fmt.Println("| window W | verdict | broadcaster | max latency after stabilization |")
	fmt.Println("|---|---|---|---|")
	for _, window := range []int{1, 2, 3} {
		adv := ma.MustEventuallyStable("",
			[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph},
			[]topocon.Graph{topocon.RightGraph}, window)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: 5})
		fmt.Printf("| %d | %v | %d | %d |\n",
			window, res.Verdict, res.Broadcaster+1, res.MaxDecisionLatency)
	}
	fmt.Println()
	fmt.Println("n=3, silent chaos, stable chain 1->2->3 (diameter 2):")
	fmt.Println()
	fmt.Println("| window W | verdict | note |")
	fmt.Println("|---|---|---|")
	for _, window := range []int{1, 2, 3} {
		adv := ma.MustEventuallyStable("",
			[]topocon.Graph{topocon.NewGraph(3)},
			[]topocon.Graph{topocon.ChainGraph(3)}, window)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: 5})
		note := "window ≥ diameter: root broadcast completes"
		if res.Verdict != topocon.VerdictSolvable {
			note = "window < diameter: x1 never reaches process 3"
		}
		fmt.Printf("| %d | %v | %s |\n", window, res.Verdict, note)
	}
	fmt.Println()
	fmt.Println("Deadline compactifications (chaos {<-,<->}, stable {->}, W=1):")
	fmt.Println()
	fmt.Println("| deadline R | verdict | separation horizon |")
	fmt.Println("|---|---|---|")
	inner := ma.MustEventuallyStable("",
		[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph},
		[]topocon.Graph{topocon.RightGraph}, 1)
	for _, deadline := range []int{1, 2, 3, 4} {
		adv := ma.MustDeadlineStable(inner, deadline)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: 7})
		fmt.Printf("| %d | %v | %d |\n", deadline, res.Verdict, res.SeparationHorizon)
	}
	fmt.Println()
	fmt.Println("Decision-round distribution of the broadcast rule over 2000 random")
	fmt.Println("12-round admissible runs (chaos {<-,<->}, stable {->}, W=2) — decision")
	fmt.Println("times track stabilization, not any fixed bound:")
	fmt.Println()
	adv := ma.MustEventuallyStable("",
		[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph},
		[]topocon.Graph{topocon.RightGraph}, 2)
	res := checked(adv, topocon.CheckOptions{MaxHorizon: 6})
	factory := topocon.NewFullInfo(res.Rule)
	rng := rand.New(rand.NewSource(42))
	hist := map[int]int{}
	for i := 0; i < 2000; i++ {
		run, done := topocon.RandomDoneRun(adv, rng, 2, 12, 6)
		if !done {
			continue
		}
		hist[topocon.Execute(factory, run).LastDecisionRound()]++
	}
	fmt.Println("| last decision round | runs |")
	fmt.Println("|---|---|")
	for r := 0; r <= 12; r++ {
		if hist[r] > 0 {
			fmt.Printf("| %d | %d |\n", r, hist[r])
		}
	}
}

// e9 drives the universal algorithms through the message-passing simulator
// and contrasts them with FloodMin.
func e9() {
	fmt.Println("Exhaustive simulation of the universal algorithm (full-information")
	fmt.Println("protocol + compiled decision rule), all admissible runs:")
	fmt.Println()
	fmt.Println("| adversary | runs | violations | max decision round |")
	fmt.Println("|---|---|---|---|")
	compactCases := []struct {
		name string
		adv  topocon.Adversary
	}{
		{"{<-,->}", topocon.LossyLink2()},
		{"{<->}", ma.MustOblivious("", topocon.BothGraph)},
		{"{<-,<->}", ma.MustOblivious("", topocon.LeftGraph, topocon.BothGraph)},
	}
	for _, c := range compactCases {
		res := checked(c.adv, topocon.CheckOptions{MaxHorizon: 5})
		factory := topocon.NewFullInfo(res.Rule)
		runs, violations, maxRound := 0, 0, 0
		topocon.ExhaustiveSim(c.adv, factory, 2, 4, func(tr *topocon.Trace, _ ma.Prefix) bool {
			runs++
			violations += len(topocon.CheckProperties(tr, true))
			if r := tr.LastDecisionRound(); r > maxRound {
				maxRound = r
			}
			return true
		})
		fmt.Printf("| %s | %d | %d | %d |\n", c.name, runs, violations, maxRound)
	}
	adv := ma.MustEventuallyStable("",
		[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph},
		[]topocon.Graph{topocon.RightGraph}, 2)
	res := checked(adv, topocon.CheckOptions{MaxHorizon: 6})
	factory := topocon.NewFullInfo(res.Rule)
	rng := rand.New(rand.NewSource(2019))
	runs, violations, maxRound := 0, 0, 0
	for iter := 0; iter < 2000; iter++ {
		run, done := topocon.RandomDoneRun(adv, rng, 2, 14, 7)
		if !done {
			continue
		}
		tr := topocon.Execute(factory, run)
		runs++
		violations += len(topocon.CheckProperties(tr, true))
		if r := tr.LastDecisionRound(); r > maxRound {
			maxRound = r
		}
	}
	fmt.Printf("| eventually ->^2 (random, 14 rounds) | %d | %d | %d |\n", runs, violations, maxRound)
	fmt.Println()
	fmt.Println("FloodMin baseline under the lossy link (agreement violations expected):")
	fmt.Println()
	fmt.Println("| decide round | runs | runs violating agreement |")
	fmt.Println("|---|---|---|")
	for _, k := range []int{1, 2, 3} {
		runs, bad := 0, 0
		topocon.ExhaustiveSim(topocon.LossyLink3(), topocon.NewFloodMin(k), 2, k+1,
			func(tr *topocon.Trace, _ ma.Prefix) bool {
				runs++
				if len(topocon.CheckProperties(tr, false)) > 0 {
					bad++
				}
				return true
			})
		fmt.Printf("| %d | %d | %d |\n", k, runs, bad)
	}
}

// e10 applies the exact Corollary 5.6 checker to finite adversaries.
func e10() {
	fmt.Println("| finite adversary | runs | components | mixed | bridge pairs | solvable |")
	fmt.Println("|---|---|---|---|---|---|")
	cases := []struct {
		name  string
		words []topocon.GraphWord
		n     int
	}{
		{"{--^ω}", []topocon.GraphWord{topocon.RepeatWord(topocon.NeitherGraph)}, 2},
		{"{<-^ω}", []topocon.GraphWord{topocon.RepeatWord(topocon.LeftGraph)}, 2},
		{"{->^ω}", []topocon.GraphWord{topocon.RepeatWord(topocon.RightGraph)}, 2},
		{"{<-^ω, ->^ω}", []topocon.GraphWord{
			topocon.RepeatWord(topocon.LeftGraph), topocon.RepeatWord(topocon.RightGraph)}, 2},
		{"{<-^ω, ->^ω, --^ω}", []topocon.GraphWord{
			topocon.RepeatWord(topocon.LeftGraph), topocon.RepeatWord(topocon.RightGraph),
			topocon.RepeatWord(topocon.NeitherGraph)}, 2},
		{"{(<- ->)^ω, (-> <-)^ω}", []topocon.GraphWord{
			mustWord(nil, []topocon.Graph{topocon.LeftGraph, topocon.RightGraph}),
			mustWord(nil, []topocon.Graph{topocon.RightGraph, topocon.LeftGraph})}, 2},
		{"n=3 {sink^ω}", []topocon.GraphWord{
			topocon.RepeatWord(topocon.MustParseGraph(3, "1<->2, 1->3, 2->3"))}, 3},
		{"n=3 {silent^ω}", []topocon.GraphWord{topocon.RepeatWord(topocon.NewGraph(3))}, 3},
	}
	for _, c := range cases {
		a, err := topocon.AnalyzeFinite(c.words, 2)
		if err != nil {
			fail(err)
		}
		fmt.Printf("| %s | %d | %d | %d | %d | %v |\n",
			c.name, len(a.Runs), len(a.Components), len(a.Mixed), len(a.BridgePairs), a.Solvable)
	}
}

func mustWord(prefix, cycle []topocon.Graph) topocon.GraphWord {
	w, err := topocon.NewGraphWord(prefix, cycle)
	if err != nil {
		fail(err)
	}
	return w
}

// e12 exercises the PR 2 combinator algebra: workloads assembled by
// intersection, sequencing and filtering, keyed by behavioural
// fingerprint. The same adversaries ship declaratively in scenarios/.
func e12() {
	lossy3 := topocon.LossyLink3()
	evRooted := ma.MustEventuallyStable("",
		[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph, topocon.NeitherGraph},
		[]topocon.Graph{topocon.RightGraph}, 1)
	cases := []struct {
		label   string
		adv     topocon.Adversary
		horizon int
	}{
		{"lossy3 ~ repeat^2 ∩ eventually ->", ma.MustIntersect("",
			ma.MustWindowStable(lossy3, 2), evRooted), 5},
		{"chaos ·2· {<-,->}", ma.MustConcat("",
			topocon.Unrestricted(2), 2, topocon.LossyLink2()), 6},
		{"unrestricted filtered to nonsplit", ma.MustFilter(
			topocon.Unrestricted(2), "", ma.PredNonsplit()), 5},
		{"{<-,->} ~ repeat^2", ma.MustWindowStable(topocon.LossyLink2(), 2), 5},
	}
	fmt.Println("| adversary | compact | verdict | fingerprint(6) |")
	fmt.Println("|---|---|---|---|")
	for _, c := range cases {
		res := checked(c.adv, topocon.CheckOptions{MaxHorizon: c.horizon})
		fmt.Printf("| %s | %v | %v | %s |\n",
			c.label, c.adv.Compact(), res.Verdict, ma.FingerprintShort(c.adv, 6))
	}
	fmt.Println()
	fmt.Println("(The nonsplit filter stays 'unknown' because the impossibility")
	fmt.Println("certificate searches are wired to oblivious adversaries; its language")
	fmt.Println("is exactly the lossy link, and the behavioural fingerprint detects the")
	fmt.Println("coincidence — the hook a result cache would key on:)")
	fmt.Println()
	fmt.Printf("Fingerprint(unrestricted|nonsplit) == Fingerprint(lossy3): %v\n",
		topocon.Fingerprint(ma.MustFilter(topocon.Unrestricted(2), "", ma.PredNonsplit()), 6) ==
			topocon.Fingerprint(lossy3, 6))
}

// e11 sweeps the Santoro-Widmayer loss-bounded adversaries: at most f
// messages lost per round.
func e11() {
	fmt.Println("At most f of the n(n-1) messages lost per round ([21]: impossible for")
	fmt.Println("f ≥ n-1; [22]: solvable below the isolation threshold):")
	fmt.Println()
	fmt.Println("| n | f | graphs | verdict | separation | certificate |")
	fmt.Println("|---|---|---|---|---|---|")
	cases := []struct{ n, f, horizon int }{
		{2, 0, 2}, {2, 1, 3},
		{3, 0, 2}, {3, 1, 3}, {3, 2, 2},
	}
	for _, c := range cases {
		adv := ma.LossBounded(c.n, c.f)
		res := checked(adv, topocon.CheckOptions{MaxHorizon: c.horizon})
		cert := "-"
		switch res.Certificate.(type) {
		case *topocon.BivalenceCertificate:
			cert = "bounded chain"
		case *topocon.PumpCertificate:
			cert = "alternating pump"
		}
		fmt.Printf("| %d | %d | %d | %v | %d | %s |\n",
			c.n, c.f, len(adv.Graphs()), res.Verdict, res.SeparationHorizon, cert)
	}
}
