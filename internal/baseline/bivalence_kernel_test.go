package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/graph"
	"topocon/internal/ma"
)

// randomOblivious draws an oblivious adversary on n processes with 1..5
// random graphs (self-loops are implied by graph.FromInMasks).
func randomOblivious(t *testing.T, rng *rand.Rand, n int) *ma.Oblivious {
	t.Helper()
	count := 1 + rng.Intn(5)
	graphs := make([]graph.Graph, count)
	full := graph.AllNodes(n)
	for i := range graphs {
		masks := make([]uint64, n)
		for q := range masks {
			masks[q] = rng.Uint64() & full
		}
		g, err := graph.FromInMasks(n, masks)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	adv, err := ma.NewOblivious("", graphs)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// kernelProve runs the kernel, with or without its visited-state table, and
// returns its certificate and its surviving words keyed like the oracle's
// survivor set.
func kernelProve(adv *ma.Oblivious, domain, maxLen int, tableless bool) (*BivalenceCertificate, bool, map[string]bool) {
	k := newChainKernel(adv, maxLen)
	if tableless {
		k.seen = nil
	} else if k.seen == nil {
		panic("test word space too large for the visited-state table")
	}
	cert, ok := k.prove(domain)
	out := make(map[string]bool)
	for id, alive := range k.alive {
		if !alive {
			continue
		}
		w := make([]uint64, k.length[id])
		for i := range w {
			w[i] = uint64(k.letters[id*k.maxLen+i])
		}
		out[wordKey(w)] = true
	}
	return cert, ok, out
}

// TestChainKernelMatchesOracle pins the dense-id kernel to the original
// engine on random oblivious adversaries with n = 2..4: equal survivor
// sets (the greatest fixpoint) and equal certificates, including the
// surviving-word count and the anchored chain. Every case runs the kernel
// twice: with its visited-state table, and without it, the mode the kernel
// falls back to above maxSeenStates.
func TestChainKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const cases = 320
	certified := 0
	for c := 0; c < cases; c++ {
		n := 2 + c%3
		var maxLen int
		switch n {
		case 2:
			maxLen = 1 + rng.Intn(5)
		case 3:
			maxLen = 1 + rng.Intn(3)
		default:
			maxLen = 1 + rng.Intn(2)
			if c%15 == 2 {
				maxLen = 3 // the production chain length for n ≥ 3
			}
		}
		adv := randomOblivious(t, rng, n)
		domain := 2 + rng.Intn(2)
		wantCert, wantOK, wantSurv := oracleProveBivalent(adv, domain, maxLen)
		for _, tableless := range []bool{false, true} {
			gotCert, gotOK, gotSurv := kernelProve(adv, domain, maxLen, tableless)
			if !reflect.DeepEqual(wantSurv, gotSurv) {
				t.Fatalf("case %d (n=%d, len=%d, tableless %v, graphs %v): %d survivors, oracle %d",
					c, n, maxLen, tableless, adv.Graphs(), len(gotSurv), len(wantSurv))
			}
			if gotOK != wantOK || !reflect.DeepEqual(gotCert, wantCert) {
				t.Fatalf("case %d (n=%d, len=%d, tableless %v): certificate %v (%v), oracle %v (%v)",
					c, n, maxLen, tableless, gotCert, gotOK, wantCert, wantOK)
			}
		}
		if gotCert, gotOK := ProveBivalent(adv, domain, maxLen); gotOK != wantOK || !reflect.DeepEqual(gotCert, wantCert) {
			t.Fatalf("case %d: ProveBivalent %v (%v), oracle %v (%v)", c, gotCert, gotOK, wantCert, wantOK)
		}
		if wantOK {
			certified++
		}
	}
	if certified == 0 || certified == cases {
		t.Fatalf("%d of %d cases certified: the sample does not exercise both outcomes", certified, cases)
	}
}

// TestChainKernelMatchesOracleOnLossyStar pins the benchmark adversary:
// lossy-star-4 (every leaf reaches the center; the center's broadcast may
// drop one spoke) at chain length 3.
func TestChainKernelMatchesOracleOnLossyStar(t *testing.T) {
	adv := advgen.LossyStar4()
	wantCert, wantOK, wantSurv := oracleProveBivalent(adv, 2, 3)
	for _, tableless := range []bool{false, true} {
		gotCert, gotOK, gotSurv := kernelProve(adv, 2, 3, tableless)
		if !reflect.DeepEqual(wantSurv, gotSurv) {
			t.Fatalf("tableless %v: %d survivors, oracle %d", tableless, len(gotSurv), len(wantSurv))
		}
		if gotOK != wantOK || !reflect.DeepEqual(gotCert, wantCert) {
			t.Fatalf("tableless %v: certificate %v (%v), oracle %v (%v)", tableless, gotCert, gotOK, wantCert, wantOK)
		}
	}
}

func BenchmarkProveBivalent(b *testing.B) {
	adv := advgen.LossyStar4()
	for i := 0; i < b.N; i++ {
		ProveBivalent(adv, 2, 3)
	}
}

// TestProveBivalentDeclinesOversizedWordSpace: a word space past
// maxChainWords (255⁴ words for n = 8 at length 4) is declined — no
// certificate — instead of allocated. The silent graph would otherwise be
// certified, as TestProveBivalentSilentGraph shows at n = 2.
func TestProveBivalentDeclinesOversizedWordSpace(t *testing.T) {
	if _, ok := ProveBivalent(ma.MustOblivious("", graph.New(8)), 2, 4); ok {
		t.Fatal("certified over a word space past the cap")
	}
	if !chainWordsFit(4, 3) {
		t.Fatal("lossy-star-4's word space (15³ words) does not fit")
	}
}
