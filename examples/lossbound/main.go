// Message-loss thresholds: the Santoro-Widmayer adversary family that
// opens the paper's introduction. With at most f of the n(n-1) messages
// lost per round, consensus is impossible exactly when f ≥ n-1 — the
// adversary can then mute one process forever, and the checker finds the
// self-similar bivalent chain automatically.
package main

import (
	"context"
	"fmt"
	"log"

	"topocon"
)

func main() {
	ctx := context.Background()
	fmt.Println("at most f messages lost per round ([21], [22]):")
	fmt.Println()
	for _, c := range []struct{ n, f, horizon int }{
		{2, 0, 2}, {2, 1, 3},
		{3, 0, 2}, {3, 1, 3}, {3, 2, 2},
		{4, 1, 2},
	} {
		adv := topocon.LossBounded(c.n, c.f)
		// The n=4 space grows fast; the session is cancellable via ctx.
		an, err := topocon.NewAnalyzer(adv, topocon.WithMaxHorizon(c.horizon))
		if err != nil {
			log.Fatal(err)
		}
		res, err := an.Check(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d f=%d (threshold n-1=%d): %v", c.n, c.f, c.n-1, res.Verdict)
		switch res.Verdict {
		case topocon.VerdictSolvable:
			fmt.Printf(" — separation at horizon %d\n", res.SeparationHorizon)
		case topocon.VerdictImpossible:
			fmt.Printf("\n    proof: %v\n", res.Certificate)
		default:
			fmt.Println()
		}
	}
	fmt.Println()
	fmt.Println("the broadcast automaton explains the threshold: below n-1 losses no")
	fmt.Println("process can be silenced, above it the adversary traps a heard-set:")
	for _, f := range []int{1, 2} {
		adv := topocon.LossBounded(3, f)
		a := topocon.AnalyzeHeardSet(adv, 0)
		if a.CanTrap {
			fmt.Printf("  f=%d: process 1 trappable (stuck heard-set exists)\n", f)
		} else {
			fmt.Printf("  f=%d: process 1 broadcasts within %d rounds in every run\n",
				f, a.WorstBroadcastRounds)
		}
	}
}
