package check

import (
	"context"
	"errors"
	"fmt"
	"time"

	"topocon/internal/baseline"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/topo"
)

// ErrHorizonExhausted is returned by Analyzer.Step once every horizon up to
// MaxHorizon has been analysed.
var ErrHorizonExhausted = errors.New("check: analysis horizon exhausted")

// HorizonReport describes one completed horizon of an analysis session. It
// is delivered to the WithProgress callback after each one-horizon
// refinement and returned by Step.
type HorizonReport struct {
	// Horizon is the prefix length just analysed.
	Horizon int
	// Runs is the size of the horizon's prefix space.
	Runs int
	// Components and MixedComponents describe its decomposition, counted
	// in the full space even when the session quotients by symmetry.
	Components      int
	MixedComponents int
	// Broadcastable reports whether every valent component of this horizon
	// has a uniform-input broadcaster.
	Broadcastable bool
	// SeparationHorizon and BroadcastHorizon are the first horizons at
	// which separation / broadcastability held, or -1 while unseen
	// (compact adversaries only; -1 otherwise).
	SeparationHorizon int
	BroadcastHorizon  int
	// InternedRuns is the number of items actually materialized for this
	// horizon: Runs under Options.NoSymmetry, and the orbit-representative
	// count under the symmetry quotient — the observable the quotient
	// shrinks (DESIGN.md §13). Runs/InternedRuns is the live reduction
	// factor.
	InternedRuns int
	// InternedViews is the cumulative count of stored views (hash-consed
	// cones) — one per orbit of the symmetry group under the quotient
	// (DESIGN.md §13) — a proxy for session memory.
	InternedViews int
	// Elapsed is the wall-clock cost of this horizon's extension and
	// decomposition.
	Elapsed time.Duration
}

// AnalyzerOption configures an Analyzer at construction.
type AnalyzerOption func(*Analyzer)

// WithInputDomain sets the number of input values (default 2).
func WithInputDomain(d int) AnalyzerOption {
	return func(a *Analyzer) { a.opts.InputDomain = d }
}

// WithMaxHorizon bounds the prefix horizons analysed (default 7).
func WithMaxHorizon(t int) AnalyzerOption {
	return func(a *Analyzer) { a.opts.MaxHorizon = t }
}

// WithMaxRuns bounds the prefix-space size (default topo.DefaultMaxRuns).
func WithMaxRuns(m int) AnalyzerOption {
	return func(a *Analyzer) { a.opts.MaxRuns = m }
}

// WithDefaultValue sets the value assigned to valence-free components
// without a broadcaster (default 0).
func WithDefaultValue(v int) AnalyzerOption {
	return func(a *Analyzer) { a.opts.DefaultValue = v }
}

// WithCertChainLen bounds the bivalence-certificate chain search; see
// Options.CertChainLen.
func WithCertChainLen(l int) AnalyzerOption {
	return func(a *Analyzer) { a.opts.CertChainLen = l }
}

// WithLatencySlack sets the non-compact decision-latency budget; see
// Options.LatencySlack.
func WithLatencySlack(r int) AnalyzerOption {
	return func(a *Analyzer) { a.opts.LatencySlack = r }
}

// WithParallelism returns an option that changes nothing.
//
// Deprecated: a session runs on the goroutine that calls Step or Check, so
// the worker count is ignored. The option stays only because the benchmark
// module in topobench/ still passes it.
func WithParallelism(int) AnalyzerOption {
	return func(*Analyzer) {}
}

// WithNoSymmetry disables the symmetry quotient, both its process part
// and its input-value part; see Options.NoSymmetry.
func WithNoSymmetry() AnalyzerOption {
	return func(a *Analyzer) { a.opts.NoSymmetry = true }
}

// WithProgress registers a callback invoked after every analysed horizon,
// from the goroutine running Step or Check. The callback fires after the
// horizon's state is fully committed, so it is the safe hook for periodic
// checkpoints (Snapshot).
func WithProgress(fn func(HorizonReport)) AnalyzerOption {
	return func(a *Analyzer) { a.progress = fn }
}

// WithPager attaches an out-of-core pager to the session: frontier rounds
// that stop being the newest are spilled to the pager's page directory and
// evicted under its hot-set budget, chain walks fault them back in
// transparently, and the session becomes checkpointable (Snapshot). One
// pager serves one session.
func WithPager(pg *pager.Pager) AnalyzerOption {
	return func(a *Analyzer) { a.pager = pg }
}

// WithOptions bulk-applies a legacy Options struct; later options override
// its fields. CheckConsensus is implemented with it.
func WithOptions(o Options) AnalyzerOption {
	return func(a *Analyzer) { a.opts = o }
}

// Analyzer is a stateful consensus-solvability analysis session over one
// message adversary. It refines the adversary's prefix space one horizon at
// a time — incrementally, via topo.Space.Extend, reusing the previous
// horizon's items, automaton states and hash-consed views — and applies the
// compact (Theorem 6.6) or non-compact (Theorem 6.7) route once the
// evidence suffices.
//
// Drive it either with Check, which advances horizons until a verdict is
// reached, or manually with Step, which advances exactly one horizon and
// reports it. Both accept a context for cancellation; a cancelled session
// keeps its completed horizons and can be resumed with a fresh context.
// An Analyzer is not safe for concurrent use.
//
// A session holds two spaces: the deepest one, which the next Step
// extends and the non-compact route (Theorem 6.7) reads, and the
// separation horizon's, from which the compact route (Theorem 6.6)
// compiles the universal algorithm (Result.Space). SpaceAt replays any
// other horizon from the frontier chain the deepest space reaches.
type Analyzer struct {
	adv      ma.Adversary
	opts     Options
	progress func(HorizonReport)
	pager    *pager.Pager // nil = all-hot, not checkpointable

	cur      *topo.Space         // deepest space
	decomp   *topo.Decomposition // decomposition at the deepest horizon; nil after a failed Step
	sym      *ma.Group           // quotient group, computed at first Step
	res      *Result
	finished bool
}

// NewAnalyzer creates an analysis session for the adversary. It validates
// the configuration (negative InputDomain, MaxHorizon, MaxRuns or
// LatencySlack are rejected) without building any space yet.
func NewAnalyzer(adv ma.Adversary, options ...AnalyzerOption) (*Analyzer, error) {
	a := &Analyzer{adv: adv}
	for _, o := range options {
		o(a)
	}
	opts, err := a.opts.withDefaults()
	if err != nil {
		return nil, err
	}
	a.opts = opts
	a.res = &Result{
		AdversaryName:      adv.Name(),
		Compact:            adv.Compact(),
		SeparationHorizon:  -1,
		BroadcastHorizon:   -1,
		Broadcaster:        -1,
		MaxDecisionLatency: -1,
	}
	return a, nil
}

// Adversary returns the adversary under analysis.
func (a *Analyzer) Adversary() ma.Adversary { return a.adv }

// Options returns the resolved session configuration.
func (a *Analyzer) Options() Options { return a.opts }

// Horizon returns the deepest horizon analysed so far (0 before any Step).
func (a *Analyzer) Horizon() int {
	if a.cur == nil {
		return 0
	}
	return a.cur.Horizon
}

// SpaceAt returns the prefix space at horizon t, or nil if t is negative
// or beyond the deepest analysed horizon. The deepest space and the
// separation horizon's (Result.Space) are returned as they are; any other
// horizon is replayed from the frontier chain (topo.Space.AncestorAt):
// automaton states from the base, spilled rounds faulted back under a
// pager (WithPager). A replayed space is not cached: every call pays the
// replay, and dropping the result releases its memory again. All returned
// spaces share one interner, so views are comparable across horizons and
// with the compiled decision map.
func (a *Analyzer) SpaceAt(t int) *topo.Space {
	switch {
	case a.cur == nil || t < 0 || t > a.cur.Horizon:
		return nil
	case t == a.cur.Horizon:
		return a.cur
	case t == a.res.SeparationHorizon:
		return a.res.Space
	}
	s, err := a.cur.AncestorAt(t)
	if err != nil {
		return nil
	}
	return s
}

// Decomposition returns the decomposition at the deepest analysed horizon,
// or nil before the first Step. Step drops the head's decomposition before
// it builds the next one, so after a failed Step the first call decomposes
// the head again.
func (a *Analyzer) Decomposition() *topo.Decomposition {
	if a.decomp == nil && a.Horizon() > 0 {
		//topocon:allow ctxflow -- an accessor without a context: it rebuilds the decomposition a failed Step dropped, one DecomposeCtx of the resident head
		a.decomp, _ = topo.DecomposeCtx(context.Background(), a.cur)
	}
	return a.decomp
}

// DecisionMap returns the compiled universal algorithm, or nil until the
// separation horizon has been found (compact adversaries only).
func (a *Analyzer) DecisionMap() *DecisionMap { return a.res.Map }

// Result returns the session's live result. Until Check completes, the
// verdict is VerdictUnknown's zero value and only the per-horizon fields
// are meaningful.
func (a *Analyzer) Result() *Result { return a.res }

// Finished reports whether Check has produced its final verdict.
func (a *Analyzer) Finished() bool { return a.finished }

// Pager returns the pager attached with WithPager, or nil.
func (a *Analyzer) Pager() *pager.Pager { return a.pager }

// symmetry returns the group the session quotients by — the trivial group
// under Options.NoSymmetry, and otherwise the product of the adversary's
// automorphism group with the permutations of the input values,
// ma.Automorphisms(adv).OnDomain(InputDomain), which falls back to the
// automorphism group alone when the product is too large. Computed once
// and cached: the group identity must be stable across Step, Snapshot and
// restore within one session.
func (a *Analyzer) symmetry() *ma.Group {
	if a.sym == nil {
		if a.opts.NoSymmetry {
			a.sym = ma.TrivialGroup(a.adv.N())
		} else {
			a.sym = ma.Automorphisms(a.adv).OnDomain(a.opts.InputDomain)
		}
	}
	return a.sym
}

// Symmetry returns the group the session quotients its prefix spaces by:
// pairs of a process automorphism and an input-value permutation, or the
// trivial group when NoSymmetry is set.
func (a *Analyzer) Symmetry() *ma.Group { return a.symmetry() }

// buildBase builds the session's horizon-0 base: one item per input
// vector (orbit), whose views are the leaves (p, x_p).
func (a *Analyzer) buildBase(ctx context.Context) error {
	base, err := topo.BuildCtx(ctx, a.adv, a.opts.InputDomain, 0, topo.Config{
		MaxRuns:  a.opts.MaxRuns,
		Pager:    a.pager,
		Symmetry: a.symmetry(),
	})
	if err != nil {
		return fmt.Errorf("check: horizon 0: %w", err)
	}
	a.cur = base
	return nil
}

// Step advances the session by exactly one horizon: it extends the prefix
// space incrementally by one round, decomposes it with topo.DecomposeCtx,
// updates the running result, and reports.
// It returns ErrHorizonExhausted once MaxHorizon has been analysed, and
// the context error on cancellation (leaving the session resumable).
func (a *Analyzer) Step(ctx context.Context) (HorizonReport, error) {
	if a.Horizon() >= a.opts.MaxHorizon {
		return HorizonReport{}, ErrHorizonExhausted
	}
	if err := ctx.Err(); err != nil {
		return HorizonReport{}, err
	}
	start := time.Now()
	if a.cur == nil {
		if err := a.buildBase(ctx); err != nil {
			return HorizonReport{}, err
		}
	}
	// Drop the head's decomposition, so it is not reachable while the next
	// one is built; Result keeps the separation horizon's.
	a.decomp = nil
	next, err := a.cur.Extend(ctx, a.cur.Horizon+1)
	if err != nil {
		return HorizonReport{}, fmt.Errorf("check: horizon %d: %w", a.cur.Horizon+1, err)
	}
	d, err := topo.DecomposeCtx(ctx, next)
	if err != nil {
		return HorizonReport{}, fmt.Errorf("check: horizon %d: %w", next.Horizon, err)
	}
	a.cur = next
	a.decomp = d

	t := next.Horizon
	res := a.res
	res.Horizon = t
	// Component counts are full-space counts: each component orbit of a
	// quotiented decomposition stands for OrbitSize components.
	res.MixedComponents = d.FullMixedComponents()
	res.Components = d.FullComponents()
	broadcastable := d.ValentComponentsBroadcastable()
	if a.adv.Compact() {
		if res.SeparationHorizon < 0 && res.MixedComponents == 0 {
			// Separation persists under refinement (components only ever
			// split), so the first separating horizon is where the
			// universal algorithm is compiled.
			res.SeparationHorizon = t
			res.Space = next
			res.Decomposition = d
			res.Map = BuildDecisionMap(d, a.opts.DefaultValue)
		}
		if res.BroadcastHorizon < 0 && broadcastable {
			res.BroadcastHorizon = t
		}
	}
	rep := HorizonReport{
		Horizon: t,
		// Runs reports full-space numbers: under the symmetry quotient
		// (Options.NoSymmetry unset) fewer items are interned, but the
		// space they represent — and every budget and report derived from
		// it — is unchanged.
		Runs:              next.FullLen(),
		InternedRuns:      next.Len(),
		Components:        res.Components,
		MixedComponents:   res.MixedComponents,
		Broadcastable:     broadcastable,
		SeparationHorizon: res.SeparationHorizon,
		BroadcastHorizon:  res.BroadcastHorizon,
		InternedViews:     next.Interner.Size(),
		Elapsed:           time.Since(start),
	}
	if a.progress != nil {
		a.progress(rep)
	}
	return rep, nil
}

// Check runs the analysis to a verdict: it advances horizons with Step
// until the route-specific evidence is complete or MaxHorizon is reached,
// then finalizes the verdict (certificate search for compact adversaries
// without separation; designated-broadcaster analysis for non-compact
// ones). Check is resumable: after a cancellation it can be called again
// with a fresh context and continues from the last completed horizon.
// Once finished it returns the cached result.
func (a *Analyzer) Check(ctx context.Context) (*Result, error) {
	if a.finished {
		return a.res, nil
	}
	if a.adv.Compact() {
		for a.res.SeparationHorizon < 0 || a.res.BroadcastHorizon < 0 {
			if _, err := a.Step(ctx); err != nil {
				if errors.Is(err, ErrHorizonExhausted) {
					break
				}
				return nil, err
			}
		}
		a.finalizeCompact()
	} else {
		for {
			if _, err := a.Step(ctx); err != nil {
				if errors.Is(err, ErrHorizonExhausted) {
					break
				}
				return nil, err
			}
		}
		a.finalizeNonCompact()
	}
	a.finished = true
	return a.res, nil
}

// finalizeCompact turns the accumulated compact-route evidence into a
// verdict (Theorem 6.6), falling back to the impossibility-certificate
// searches when no separation horizon was found.
func (a *Analyzer) finalizeCompact() {
	res := a.res
	if res.SeparationHorizon >= 0 {
		// Separation persists under refinement, so it is an exact
		// solvability witness for a compact adversary.
		res.Verdict = VerdictSolvable
		res.Exact = true
		res.Rule = &MapRule{Map: res.Map}
		return
	}
	chainLen := a.opts.EffectiveCertChainLen(a.adv.N())
	// Normalize first, so algebraic identity spellings of an oblivious
	// adversary (Intersect with Unrestricted, zero-length Concat prefixes)
	// reach the certificate searches their plain spelling reaches.
	if ob, ok := ma.Normalize(a.adv).(*ma.Oblivious); ok && chainLen > 0 {
		// The pump search is polynomial in the graph-set size; try it
		// first. The bounded-chain greatest fixpoint is exponential in
		// the chain length and graph count, so it is gated on small sets.
		if cert, found := baseline.FindPumpCertificate(ob, a.opts.InputDomain); found {
			res.Verdict = VerdictImpossible
			res.Exact = true
			res.Certificate = cert
			return
		}
		if len(ob.Graphs()) <= maxGraphsForChainSearch {
			if cert, found := baseline.ProveBivalent(ob, a.opts.InputDomain, chainLen); found {
				res.Verdict = VerdictImpossible
				res.Exact = true
				res.Certificate = cert
				return
			}
		}
	}
	res.Verdict = VerdictUnknown
}

// finalizeNonCompact applies Theorem 6.7: for a non-compact adversary the
// finite-horizon components of the full prefix space stay mixed at every
// resolution (pending prefixes carry the excluded limit sequences, Fig. 5),
// so the compact ε-approximation route is unavailable. Instead the checker
// looks for a designated universal broadcaster p*: a process that is heard
// by everyone in every admissible run shortly after the adversary's
// liveness obligation discharges. Its existence makes the partition
// PS(v) = {x_{p*} = v} open — every process decides x_{p*} upon hearing it
// — which is exactly how the eventually-stabilizing adversaries of [23]
// solve consensus. Absence of such a broadcaster at the analysis horizon
// yields VerdictUnknown together with the refuting evidence.
func (a *Analyzer) finalizeNonCompact() {
	res := a.res
	s := a.cur
	if s == nil {
		res.Verdict = VerdictUnknown
		return
	}
	t := s.Horizon
	res.Space = s
	res.Decomposition = a.Decomposition()

	// A witness item is one whose obligations discharged early enough
	// that broadcast completion is owed within the horizon. Candidate
	// broadcasters must be heard-by-all in every witness item by
	// DoneAt + LatencySlack. Under the symmetry quotient the counts are
	// orbit-weighted and every relabeled twin's (permuted) heard mask
	// joins the candidate intersection, so the evidence — including the
	// Notes counts — is byte-identical to a full-space session's. Heard
	// masks and decision times relabel by the process part alone, so the
	// twins by elements that also move input values are skipped.
	n := s.N()
	grp := s.SymGroup()
	morder := s.SymOrder()
	witnesses, discharged := 0, 0
	candidates := make([]bool, n)
	for p := range candidates {
		candidates[p] = true
	}
	for i := 0; i < s.Len(); i++ {
		doneAt := s.DoneAt(i)
		if doneAt < 0 {
			continue
		}
		w := s.OrbitSize(i)
		discharged += w
		if doneAt > t-a.opts.LatencySlack {
			continue
		}
		witnesses += w
		deadline := doneAt + a.opts.LatencySlack
		if deadline > t {
			deadline = t
		}
		heard := s.HeardByAllAt(i, deadline)
		for k := 0; k < morder; k++ {
			if grp.MovesValues(k) {
				continue
			}
			hk := graph.PermuteMask(heard, grp.Elem(k))
			for p := 0; p < n; p++ {
				if candidates[p] && hk&(1<<uint(p)) == 0 {
					candidates[p] = false
				}
			}
		}
	}
	if witnesses == 0 {
		// Distinguish "nothing ever discharged" from a budget
		// misconfiguration: LatencySlack > horizon rejects every discharged
		// run (then t - LatencySlack < 0, so DoneAt > t - LatencySlack
		// holds even for DoneAt = 0), which would otherwise read as silent
		// unsolvability evidence.
		switch {
		case discharged > 0 && a.opts.LatencySlack > t:
			res.Notes = append(res.Notes, fmt.Sprintf(
				"latency slack %d exceeds the analysis horizon %d: all %d discharged runs were rejected as witnesses; raise MaxHorizon or lower LatencySlack",
				a.opts.LatencySlack, t, discharged))
		case discharged > 0:
			res.Notes = append(res.Notes, fmt.Sprintf(
				"all %d discharged runs discharged after round %d (horizon %d minus latency slack %d); raise MaxHorizon to observe post-discharge rounds",
				discharged, t-a.opts.LatencySlack, t, a.opts.LatencySlack))
		default:
			res.Notes = append(res.Notes, fmt.Sprintf(
				"no admissible run discharged its liveness obligations by horizon %d", t))
		}
		res.Verdict = VerdictUnknown
		return
	}
	best := -1
	for p := 0; p < n; p++ {
		if candidates[p] {
			best = p
			break
		}
	}
	if best < 0 {
		res.PendingUndecided = true
		res.Verdict = VerdictUnknown
		return
	}
	res.Broadcaster = best
	rule := &BroadcastRule{Broadcaster: best}
	res.Rule = rule

	// Measure decision latency of the broadcast rule over Done items —
	// over every orbit member under the quotient (per-process decision
	// times permute across twins, so the rep alone would under-report the
	// fold; with m = 1 the pseudo accessors are ViewsOf/RunOf verbatim).
	for i := 0; i < s.Len(); i++ {
		doneAt := s.DoneAt(i)
		if doneAt < 0 || doneAt > t-a.opts.LatencySlack {
			continue
		}
		for k := 0; k < morder; k++ {
			if grp.MovesValues(k) {
				continue
			}
			run := s.PseudoRun(i, k)
			views := s.PseudoViews(i, k)
			last := 0
			for p := 0; p < n; p++ {
				decided := false
				for tt := 0; tt <= t; tt++ {
					if _, ok := rule.Decide(ViewOf(run, views, tt, p)); ok {
						if tt > last {
							last = tt
						}
						decided = true
						break
					}
				}
				if !decided {
					res.PendingUndecided = true
				}
			}
			latency := last - doneAt
			if latency < 0 {
				latency = 0 // decided before the obligation discharged
			}
			if latency > res.MaxDecisionLatency {
				res.MaxDecisionLatency = latency
			}
		}
	}
	if res.PendingUndecided {
		res.Verdict = VerdictUnknown
		res.Rule = nil
		return
	}
	res.Verdict = VerdictSolvable
	res.Exact = false
}
