package check

import (
	"context"
	"fmt"
	"strings"

	"topocon/internal/ma"
	"topocon/internal/topo"
)

// Verdict classifies the outcome of a solvability analysis.
type Verdict int

const (
	// VerdictSolvable: consensus is solvable; the Result carries the
	// universal algorithm. Exact for compact adversaries (separation
	// witness, Theorem 6.6); evidence-based for non-compact ones
	// (Theorem 6.7 checked at finite horizon).
	VerdictSolvable Verdict = iota + 1
	// VerdictImpossible: consensus is certifiably impossible (bivalence
	// certificate, Section 6.1).
	VerdictImpossible
	// VerdictUnknown: neither a solvability witness nor an impossibility
	// certificate was found within the analysis budget.
	VerdictUnknown
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSolvable:
		return "solvable"
	case VerdictImpossible:
		return "impossible"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options configure the checker.
type Options struct {
	// InputDomain is the number of input values (default 2).
	InputDomain int
	// MaxHorizon bounds the prefix horizons analysed (default 7).
	MaxHorizon int
	// MaxRuns bounds the prefix-space size (default topo.DefaultMaxRuns).
	MaxRuns int
	// DefaultValue is assigned to valence-free components by the
	// meta-procedure's step 3 (default 0).
	DefaultValue int
	// CertChainLen bounds the bivalence-certificate chain search for
	// oblivious adversaries; 0 selects an adaptive default (5 for n ≤ 2,
	// 3 for larger n — the word space grows as (2^n-1)^len); a negative
	// value disables the search. A chain length whose longest words exceed
	// 2^22 — n = 8 at the default 3, n = 5 at 5 — is declined (no
	// certificate, so the verdict stays unknown) instead of searched;
	// verdicts cached before that cap are retired by the v3 sweep key.
	CertChainLen int
	// LatencySlack is the number of rounds a non-compact adversary's runs
	// are allowed between obligation discharge and full decision before
	// the checker refuses the solvability evidence (default 2).
	LatencySlack int
	// NoSymmetry disables the symmetry quotient (DESIGN.md §13), both
	// parts of it: by default the session interns one run-prefix
	// representative per orbit of G × Sym(V) — G = ma.Automorphisms(adv)
	// relabels processes, Sym(V) relabels input values — and expands
	// orbits where full-space structure is needed, which changes no
	// observable output — verdicts, horizons, decision maps and run counts
	// are identical — only the interned item count. Set NoSymmetry to
	// analyse the full space directly (differential testing, symmetry-bug
	// triage).
	NoSymmetry bool
}

func (o Options) withDefaults() (Options, error) {
	// An explicitly negative budget is a configuration error, not a
	// request for the default: report it instead of silently analysing.
	if o.InputDomain < 0 {
		return o, fmt.Errorf("check: negative input domain %d", o.InputDomain)
	}
	if o.MaxHorizon < 0 {
		return o, fmt.Errorf("check: negative max horizon %d", o.MaxHorizon)
	}
	if o.MaxRuns < 0 {
		return o, fmt.Errorf("check: negative max runs %d", o.MaxRuns)
	}
	if o.LatencySlack < 0 {
		return o, fmt.Errorf("check: negative latency slack %d", o.LatencySlack)
	}
	if o.InputDomain == 0 {
		o.InputDomain = 2
	}
	if o.MaxHorizon == 0 {
		o.MaxHorizon = 7
	}
	if o.MaxRuns == 0 {
		// topo.Config treats ≤ 0 as DefaultMaxRuns; resolve it here so an
		// explicit DefaultMaxRuns and the zero value are the same
		// configuration (cache keys depend on this).
		o.MaxRuns = topo.DefaultMaxRuns
	}
	if o.LatencySlack == 0 {
		o.LatencySlack = 2
	}
	return o, nil
}

// EffectiveCertChainLen returns the bivalence-certificate chain budget the
// compact route actually uses for an n-process adversary: the explicit
// value, or the adaptive default (5 for n ≤ 2, 3 for larger n — the word
// space grows as (2^n-1)^len) when the field is zero. Negative disables
// the search. Cache keys must use this resolved form.
func (o Options) EffectiveCertChainLen(n int) int {
	if o.CertChainLen != 0 {
		return o.CertChainLen
	}
	if n <= 2 {
		return 5
	}
	return 3
}

// Resolved returns the options with every default applied — the exact
// configuration an Analyzer constructed from o would run with, or the
// construction error for invalid (negative) fields. Callers that key caches
// or reports on an option set must key on the resolved form, so that a zero
// field and its explicit default value collide instead of splitting
// otherwise-identical work.
func (o Options) Resolved() (Options, error) { return o.withDefaults() }

// Result is the outcome of a solvability analysis.
type Result struct {
	// AdversaryName identifies the analysed adversary.
	AdversaryName string
	// Compact records whether the adversary is limit-closed.
	Compact bool
	// Verdict is the overall outcome; Exact reports whether it is a
	// theorem about the adversary (true) or finite-horizon evidence.
	Verdict Verdict
	Exact   bool

	// SeparationHorizon is the first horizon with no mixed component
	// (the ε of Theorem 6.6 is 2^-SeparationHorizon), or -1.
	SeparationHorizon int
	// BroadcastHorizon is the first horizon at which every valent
	// component is broadcastable, or -1. Theorem 6.6 predicts both
	// horizons exist for solvable compact adversaries.
	BroadcastHorizon int
	// Horizon is the last horizon analysed.
	Horizon int
	// MixedComponents and Components describe the decomposition at the
	// last analysed horizon, counted in the full space.
	MixedComponents int
	Components      int

	// Map is the compiled universal algorithm (nil unless solvable).
	Map *DecisionMap
	// Space and Decomposition are the reference space the map was built
	// from (nil unless solvable), at horizon Map.Reference().
	Space         *topo.Space
	Decomposition *topo.Decomposition

	// Certificate is the impossibility proof (nil unless impossible):
	// either a bounded bivalent chain (baseline.BivalenceCertificate) or a
	// self-similar alternating pump (baseline.PumpCertificate).
	Certificate fmt.Stringer

	// Non-compact route (Theorem 6.7): Broadcaster is the designated
	// process whose input every admissible run broadcasts (-1 if none was
	// found); Rule is the corresponding universal algorithm.
	// MaxDecisionLatency is the largest observed number of rounds between
	// obligation discharge and the last process decision;
	// PendingUndecided reports that some run discharged its obligations
	// at least LatencySlack rounds before the horizon yet had undecided
	// processes.
	Broadcaster        int
	Rule               Rule
	MaxDecisionLatency int
	PendingUndecided   bool

	// Notes surfaces analysis anomalies that would otherwise hide inside
	// VerdictUnknown — e.g. a LatencySlack exceeding the analysis horizon,
	// which rejects every witness run of the non-compact route.
	Notes []string
}

// Consensus analyses solvability of consensus under the adversary,
// applying the compact (Theorem 6.6) or non-compact (Theorem 6.7) route.
// It is a convenience shim over an Analyzer session run to completion with
// a background context; use NewAnalyzer directly for cancellation,
// progress reporting or one-horizon stepping.
func Consensus(adv ma.Adversary, opts Options) (*Result, error) {
	a, err := NewAnalyzer(adv, WithOptions(opts))
	if err != nil {
		return nil, err
	}
	//topocon:allow ctxflow -- documented pre-context convenience shim; cancellable callers use NewAnalyzer + Check
	return a.Check(context.Background())
}

// maxGraphsForChainSearch bounds the bounded-chain certificate search; the
// greatest-fixpoint DFS is exponential in the graph-set size.
const maxGraphsForChainSearch = 10

// Summary renders a multi-line human-readable report of the result.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "adversary:  %s\n", r.AdversaryName)
	fmt.Fprintf(&sb, "compact:    %v\n", r.Compact)
	kind := "finite-horizon evidence"
	if r.Exact {
		kind = "exact"
	}
	fmt.Fprintf(&sb, "verdict:    %v (%s)\n", r.Verdict, kind)
	switch r.Verdict {
	case VerdictSolvable:
		if r.Compact {
			fmt.Fprintf(&sb, "separation: horizon %d (ε = 2^-%d in Theorem 6.6)\n",
				r.SeparationHorizon, r.SeparationHorizon)
			fmt.Fprintf(&sb, "broadcast:  horizon %d\n", r.BroadcastHorizon)
			if r.Map != nil {
				fmt.Fprintf(&sb, "decisions:  %d decisive views compiled\n", r.Map.Size())
			}
		} else {
			fmt.Fprintf(&sb, "broadcaster: process %d (Theorem 6.7 partition PS(v) = {x_%d = v})\n",
				r.Broadcaster+1, r.Broadcaster+1)
			fmt.Fprintf(&sb, "latency:    ≤ %d rounds after stabilization\n", r.MaxDecisionLatency)
		}
	case VerdictImpossible:
		fmt.Fprintf(&sb, "certificate: %v\n", r.Certificate)
	case VerdictUnknown:
		fmt.Fprintf(&sb, "analysis:   horizon %d, %d components, %d mixed\n",
			r.Horizon, r.Components, r.MixedComponents)
		if r.PendingUndecided {
			sb.WriteString("evidence:   runs with discharged obligations stay undecided (non-broadcastable)\n")
		}
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&sb, "note:       %s\n", note)
	}
	return sb.String()
}
