package topocon_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"topocon"
)

// The differential harness cross-validates the two independent semantics
// the repo implements for every workload: the topological analysis
// (prefix-space decomposition, Theorems 6.6/6.7) and the operational
// lock-step simulator (package sim). For a solvable verdict, the extracted
// decision rule is executed by genuine message-passing full-information
// processes on exhaustively enumerated admissible runs at small horizons
// and on seeded randomized runs at larger ones, and (T), (A), (V) of
// Definition 5.1 must hold wherever the adversary's obligations make them
// due. For an impossible verdict, the bivalence witness is checked
// semantically: its anchor chain must really connect differently-valent
// runs through non-empty agreement sets, and the prefix space must keep a
// mixed component — two decision values reachable inside one
// indistinguishability class — at every analysed resolution.
//
// The harness walks every concrete corpus scenario AND every cell of every
// sweep template in scenarios/, so each new template's grid gets
// differential coverage without any test changes.

// diffTraceBudget caps the number of exhaustively executed traces per
// workload; the enumeration horizon grows while the next horizon fits.
const diffTraceBudget = 20_000

// diffRandomIters is the number of seeded random runs per workload.
const diffRandomIters = 40

// diffWorkload is one unit of differential coverage.
type diffWorkload struct {
	name   string
	sc     *topocon.Scenario
	pinned topocon.Verdict // 0 when the spec does not pin one
}

// diffWorkloads gathers the corpus: concrete scenarios plus expanded
// template cells.
func diffWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	files, templates := corpusFiles(t)
	var out []diffWorkload
	for _, file := range files {
		s, err := topocon.LoadScenario(file)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffWorkload{name: filepath.Base(file), sc: s, pinned: s.Expect})
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
			out = append(out, diffWorkload{name: cell.Scenario.Name, sc: cell.Scenario, pinned: cell.Scenario.Expect})
		}
	}
	return out
}

// TestDifferentialSimVsTopology is the harness entry point: every solvable
// workload is executed, every impossible one is checked for persistent
// bivalence. Workloads pinned unknown are skipped — an unknown verdict
// extracts no executable algorithm and certifies nothing.
func TestDifferentialSimVsTopology(t *testing.T) {
	solvableCovered := 0
	for _, w := range diffWorkloads(t) {
		w := w
		if w.pinned == topocon.VerdictUnknown {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			an, err := topocon.NewAnalyzer(w.sc.Adversary, topocon.WithCheckOptions(w.sc.Options))
			if err != nil {
				t.Fatal(err)
			}
			res, err := an.Check(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if w.pinned != 0 && res.Verdict != w.pinned {
				t.Fatalf("verdict %v contradicts pinned %v", res.Verdict, w.pinned)
			}
			switch res.Verdict {
			case topocon.VerdictSolvable:
				differentialSolvable(t, w.sc.Adversary, res, an.Options())
				solvableCovered++
			case topocon.VerdictImpossible:
				differentialImpossible(t, w.sc.Adversary, res, an.Options())
			}
		})
	}
	if solvableCovered == 0 {
		t.Fatal("differential harness covered no solvable workload")
	}
}

// exhaustiveHorizon picks the deepest horizon whose full trace count
// (admissible prefixes × input assignments) fits the budget, never below
// atLeast and never above maxHorizon.
func exhaustiveHorizon(adv topocon.Adversary, domain, atLeast, maxHorizon int) int {
	inputs := 1
	for p := 0; p < adv.N(); p++ {
		inputs *= domain
	}
	h := atLeast
	if h < 1 {
		h = 1
	}
	for h < maxHorizon && topocon.CountAdmissiblePrefixes(adv, h+1)*inputs <= diffTraceBudget {
		h++
	}
	return h
}

// doneAtOf walks the adversary automaton along a run's graph sequence and
// returns the earliest round at which the liveness obligations were
// discharged, or -1.
func doneAtOf(adv topocon.Adversary, run topocon.Run) int {
	s := adv.Start()
	for i := 0; i <= run.Rounds(); i++ {
		if adv.Done(s) {
			return i
		}
		if i < run.Rounds() {
			s = adv.Step(s, run.Graph(i+1))
		}
	}
	return -1
}

// differentialSolvable executes the extracted decision rule under the
// adversary and checks the consensus properties against the topological
// verdict, exhaustively and on seeded random runs.
func differentialSolvable(t *testing.T, adv topocon.Adversary, res *topocon.CheckResult, opts topocon.CheckOptions) {
	t.Helper()
	if res.Rule == nil {
		t.Fatal("solvable verdict without an extracted rule")
	}
	factory := topocon.NewFullInfo(res.Rule)
	compact := adv.Compact()

	// Exhaustive small-horizon enumeration. For compact adversaries the
	// decision map decides every process by the separation horizon, so
	// termination is due on every run at h ≥ SeparationHorizon. For
	// non-compact ones, termination is due once the obligations discharged
	// LatencySlack rounds before the horizon.
	atLeast := 1
	if compact {
		atLeast = res.SeparationHorizon
	}
	h := exhaustiveHorizon(adv, opts.InputDomain, atLeast, opts.MaxHorizon)
	if compact && h < res.SeparationHorizon {
		t.Fatalf("budget excludes the separation horizon %d", res.SeparationHorizon)
	}
	traces := 0
	topocon.ExhaustiveSim(adv, factory, opts.InputDomain, h,
		func(tr *topocon.Trace, pfx topocon.AdmissiblePrefix) bool {
			traces++
			requireTermination := compact ||
				(pfx.Done && pfx.DoneAt >= 0 && pfx.DoneAt <= h-opts.LatencySlack)
			for _, v := range topocon.CheckProperties(tr, requireTermination) {
				t.Errorf("exhaustive h=%d: %v", h, v)
			}
			return true
		})
	if traces == 0 {
		t.Fatalf("exhaustive enumeration at h=%d yielded no run", h)
	}

	// Seeded randomized runs beyond the exhaustive horizon.
	rng := rand.New(rand.NewSource(0x5eed))
	hr := h + 4
	for iter := 0; iter < diffRandomIters; iter++ {
		var run topocon.Run
		if compact {
			run = topocon.RandomRun(adv, rng, opts.InputDomain, hr)
		} else {
			var done bool
			run, done = topocon.RandomDoneRun(adv, rng, opts.InputDomain, hr, hr/2)
			if !done {
				continue // obligations stayed pending within the budget
			}
		}
		requireTermination := compact
		if !compact {
			doneAt := doneAtOf(adv, run)
			requireTermination = doneAt >= 0 && doneAt <= hr-opts.LatencySlack
		}
		tr := topocon.Execute(factory, run)
		for _, v := range topocon.CheckProperties(tr, requireTermination) {
			t.Errorf("random run %d: %v", iter, v)
		}
	}
}

// differentialImpossible checks an impossibility verdict semantically: the
// certificate's anchor chain really connects differently-valent input
// assignments through non-empty agreement sets, and the adversary's prefix
// space keeps a mixed component at every budgeted resolution — i.e. two
// decision values stay reachable within one indistinguishability class, so
// no algorithm can ever split them.
func differentialImpossible(t *testing.T, adv topocon.Adversary, res *topocon.CheckResult, opts topocon.CheckOptions) {
	t.Helper()
	if res.Certificate == nil {
		t.Fatal("impossible verdict without a certificate")
	}
	var inputs [][]int
	var word []uint64
	switch cert := res.Certificate.(type) {
	case *topocon.BivalenceCertificate:
		inputs, word = cert.InitialInputs, cert.InitialWord
	case *topocon.PumpCertificate:
		inputs, word = cert.AnchorInputs, cert.AnchorWord
		if cert.A == 0 || cert.B == 0 {
			t.Errorf("pump certificate with empty sustained agreement set: A=%b B=%b", cert.A, cert.B)
		}
		for i, a := range word {
			if a != cert.A && a != cert.B {
				t.Errorf("anchor word entry %d = %b is neither A nor B", i, a)
			}
		}
	default:
		t.Fatalf("unknown certificate type %T", res.Certificate)
	}
	if len(inputs) < 2 || len(word) != len(inputs)-1 {
		t.Fatalf("malformed anchor chain: %d inputs, %d word entries", len(inputs), len(word))
	}
	v0, ok0 := valentValue(inputs[0])
	vk, okk := valentValue(inputs[len(inputs)-1])
	if !ok0 || !okk || v0 == vk {
		t.Errorf("anchor endpoints not differently valent: %v .. %v", inputs[0], inputs[len(inputs)-1])
	}
	for i, a := range word {
		if a == 0 {
			t.Errorf("anchor edge %d has empty agreement set", i)
			continue
		}
		// At horizon 0 the agreement set is the equal-coordinate set.
		if eq := equalCoords(inputs[i], inputs[i+1]); a&^eq != 0 {
			t.Errorf("anchor edge %d: agreement set %b not justified by inputs %v / %v", i, a, inputs[i], inputs[i+1])
		}
	}

	// Topological persistence: a mixed component at every budgeted horizon.
	hMax := exhaustiveHorizon(adv, opts.InputDomain, 1, opts.MaxHorizon)
	for h := 1; h <= hMax; h++ {
		space, err := topocon.BuildSpaceCtx(context.Background(), adv, opts.InputDomain, h, topocon.SpaceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := topocon.DecomposeCtx(context.Background(), space)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.MixedComponents()) == 0 {
			t.Errorf("horizon %d separates the space — contradicts the impossibility certificate", h)
		}
	}
}

// valentValue reports whether all coordinates agree, and on what value.
func valentValue(x []int) (int, bool) {
	for _, v := range x[1:] {
		if v != x[0] {
			return 0, false
		}
	}
	return x[0], true
}

// equalCoords is the bitmask of coordinates on which x and y agree.
func equalCoords(x, y []int) uint64 {
	var mask uint64
	for i := range x {
		if x[i] == y[i] {
			mask |= 1 << uint(i)
		}
	}
	return mask
}
