package baseline

import (
	"math/bits"
	"testing"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// TestPumpCertificateLossyLink3 certifies the Santoro-Widmayer
// impossibility: the {<-,<->,->} lossy link admits the alternating-pump
// schema (its indistinguishability chains grow with the horizon, so no
// bounded chain certificate exists — see TestProveBivalentLossyLink3).
func TestPumpCertificateLossyLink3(t *testing.T) {
	cert, ok := FindPumpCertificate(ma.LossyLink3(), 2)
	if !ok {
		t.Fatal("no pump certificate found for lossy link {<-,<->,->}")
	}
	if cert.A == cert.B {
		t.Errorf("degenerate pump sets: %v", cert)
	}
	first, last := cert.AnchorInputs[0], cert.AnchorInputs[len(cert.AnchorInputs)-1]
	if first[0] != first[1] || last[0] != last[1] || first[0] == last[0] {
		t.Errorf("pump anchors not differently-valent: %v .. %v", first, last)
	}
	if cert.String() == "" {
		t.Error("empty certificate rendering")
	}
}

// TestProveBivalentLossyLink3 documents that the lossy link has no
// *bounded* bivalent chain — its chains must grow, which is exactly what
// the pump certificate captures.
func TestProveBivalentLossyLink3(t *testing.T) {
	if cert, ok := ProveBivalent(ma.LossyLink3(), 2, 4); ok {
		t.Fatalf("unexpected bounded chain certificate for {<-,<->,->}: %v", cert)
	}
}

// TestProveBivalentSilentGraph: any adversary containing the silent graph
// admits a bounded chain certificate (everyone plays the silent graph
// forever).
func TestProveBivalentSilentGraph(t *testing.T) {
	adversaries := []*ma.Oblivious{
		ma.MustOblivious("", graph.Neither),
		ma.MustOblivious("", graph.Neither, graph.Both),
		ma.MustOblivious("", graph.Neither, graph.Right),
		ma.Unrestricted(2),
	}
	for _, adv := range adversaries {
		cert, ok := ProveBivalent(adv, 2, 4)
		if !ok {
			t.Errorf("%s: no bounded chain certificate", adv.Name())
			continue
		}
		first, last := cert.InitialInputs[0], cert.InitialInputs[len(cert.InitialInputs)-1]
		if first[0] != first[1] || last[0] != last[1] || first[0] == last[0] {
			t.Errorf("%s: anchors not differently-valent: %v .. %v", adv.Name(), first, last)
		}
	}
}

// TestPumpCertificateSoundOnSolvable: no solvable n=2 oblivious adversary
// may receive a pump certificate.
func TestPumpCertificateSoundOnSolvable(t *testing.T) {
	solvable := []*ma.Oblivious{
		ma.MustOblivious("", graph.Both),
		ma.MustOblivious("", graph.Right),
		ma.MustOblivious("", graph.Left),
		ma.MustOblivious("", graph.Right, graph.Both),
		ma.MustOblivious("", graph.Left, graph.Both),
		ma.LossyLink2(),
	}
	for _, adv := range solvable {
		if cert, ok := FindPumpCertificate(adv, 2); ok {
			t.Errorf("%s: unexpected pump certificate %v", adv.Name(), cert)
		}
	}
}

// TestProveBivalentLossyLink2 must find no certificate: {<-,->} is
// solvable.
func TestProveBivalentLossyLink2(t *testing.T) {
	if cert, ok := ProveBivalent(ma.LossyLink2(), 2, 5); ok {
		t.Fatalf("unexpected certificate for solvable {<-,->}: %v", cert)
	}
}

// TestProveBivalentSoundnessOnSolvableSets: no oblivious n=2 adversary that
// separates at small horizon may receive a certificate.
func TestProveBivalentSoundnessOnSolvableSets(t *testing.T) {
	solvable := []*ma.Oblivious{
		ma.MustOblivious("", graph.Both),
		ma.MustOblivious("", graph.Right),
		ma.MustOblivious("", graph.Right, graph.Both),
		ma.LossyLink2(),
	}
	for _, adv := range solvable {
		if cert, ok := ProveBivalent(adv, 2, 4); ok {
			t.Errorf("%s: unexpected certificate %v", adv.Name(), cert)
		}
	}
}

// TestProveBivalentUnrestricted: the unrestricted n=2 adversary (which
// includes the silent graph) is impossible as well.
func TestProveBivalentUnrestricted(t *testing.T) {
	if _, ok := ProveBivalent(ma.Unrestricted(2), 2, 5); !ok {
		t.Error("no certificate for the unrestricted n=2 adversary")
	}
}

func TestUpdateSet(t *testing.T) {
	// In the lossy link: updating {1} with (→,→) keeps {1} (process 1
	// hears only itself under both), while (→,<->) yields {2}.
	if got := updateSet(graph.Right, graph.Right, 0b01); got != 0b01 {
		t.Errorf("updateSet({1},->,->) = %s, want {1}", graph.FormatNodeSet(got))
	}
	if got := updateSet(graph.Right, graph.Both, 0b11); got != 0b10 {
		t.Errorf("updateSet({1,2},->,<->) = %s, want {2}", graph.FormatNodeSet(got))
	}
	if got := updateSet(graph.Right, graph.Left, 0b11); got != 0 {
		t.Errorf("updateSet({1,2},->,<-) = %s, want empty", graph.FormatNodeSet(got))
	}
}

func TestAnalyzeHeardSet(t *testing.T) {
	// Lossy link {<-,->}: each process can be trapped (play the graph
	// that never delivers its message).
	for p := 0; p < 2; p++ {
		a := AnalyzeHeardSet(ma.LossyLink2(), p)
		if !a.CanTrap {
			t.Errorf("process %d must be trappable under {<-,->}", p+1)
		}
	}
	// Single graph <->: nobody can be trapped, broadcast in 1 round.
	adv := ma.MustOblivious("", graph.Both)
	for p := 0; p < 2; p++ {
		a := AnalyzeHeardSet(adv, p)
		if a.CanTrap {
			t.Errorf("process %d must not be trappable under {<->}", p+1)
		}
		if a.WorstBroadcastRounds != 1 {
			t.Errorf("process %d worst broadcast = %d, want 1", p+1, a.WorstBroadcastRounds)
		}
	}
}

func TestAnalyzeHeardSetDelays(t *testing.T) {
	// n=3 oblivious over {cycle}: worst-case broadcast is 2 rounds.
	adv := ma.MustOblivious("", graph.Cycle(3))
	for p := 0; p < 3; p++ {
		a := AnalyzeHeardSet(adv, p)
		if a.CanTrap || a.WorstBroadcastRounds != 2 {
			t.Errorf("cycle: process %d analysis %+v, want no trap, 2 rounds", p+1, a)
		}
	}
	// Two stars: adversary alternating can still not prevent broadcast of
	// the shared center, but leaves can be trapped.
	adv2 := ma.MustOblivious("", graph.Star(3, 0), graph.Star(3, 0).AddEdge(1, 2))
	a := AnalyzeHeardSet(adv2, 0)
	if a.CanTrap || a.WorstBroadcastRounds != 1 {
		t.Errorf("center analysis %+v, want no trap, 1 round", a)
	}
	if leaf := AnalyzeHeardSet(adv2, 2); !leaf.CanTrap {
		t.Errorf("leaf must be trappable: %+v", leaf)
	}
}

func TestGuaranteedBroadcasters(t *testing.T) {
	mask, worst := GuaranteedBroadcasters(ma.MustOblivious("", graph.Star(3, 1)))
	if mask != 1<<1 {
		t.Errorf("mask = %s, want {2}", graph.FormatNodeSet(mask))
	}
	if worst != 1 {
		t.Errorf("worst = %d, want 1", worst)
	}
	mask, _ = GuaranteedBroadcasters(ma.LossyLink2())
	if mask != 0 {
		t.Errorf("lossy link mask = %s, want empty", graph.FormatNodeSet(mask))
	}
}

func TestKernelSize(t *testing.T) {
	if got := KernelSize(ma.MustOblivious("", graph.Star(3, 0), graph.Cycle(3))); got != 1 {
		t.Errorf("KernelSize = %d, want 1 (star root)", got)
	}
	if got := KernelSize(ma.MustOblivious("", graph.New(3))); got != 3 {
		t.Errorf("KernelSize of empty graph = %d, want 3 (all singleton roots)", got)
	}
}

func TestBivalenceCertificateString(t *testing.T) {
	cert, ok := ProveBivalent(ma.MustOblivious("", graph.Neither), 2, 3)
	if !ok {
		t.Fatal("no certificate for the silent singleton")
	}
	s := cert.String()
	if s == "" || cert.Surviving == 0 {
		t.Errorf("degenerate rendering %q (surviving %d)", s, cert.Surviving)
	}
}

// KernelSize returns the minimum, over the adversary's graphs, of the
// number of processes in root components — a quick structural statistic
// used in sweep reports.
func KernelSize(adv *ma.Oblivious) int {
	best := adv.N() + 1
	for _, g := range adv.Graphs() {
		total := 0
		for _, c := range g.RootComponents() {
			total += bits.OnesCount64(c.Members)
		}
		if total < best {
			best = total
		}
	}
	return best
}
