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
	// cones) — one per automorphism orbit under the symmetry quotient
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

// WithNoSymmetry disables the automorphism quotient; see
// Options.NoSymmetry.
func WithNoSymmetry() AnalyzerOption {
	return func(a *Analyzer) { a.opts.NoSymmetry = true }
}

// WithRetainSpaces sets the session's space-retention policy: the k deepest
// prefix spaces stay alive, plus — always — the separation-horizon space
// once it is found (the compiled decision map's reference). Evicted
// horizons are released to the garbage collector and SpaceAt returns nil
// for them. The default is k = 1 (deepest + separation), which bounds a
// session's live item memory to two horizons instead of Σ_t |PS^t|;
// k = 0 retains every analysed horizon (the pre-retention behaviour);
// negative k is a configuration error.
func WithRetainSpaces(k int) AnalyzerOption {
	return func(a *Analyzer) { a.retain = k }
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
// transparently, and the session becomes checkpointable (Snapshot) and
// SpaceAt can rehydrate evicted horizons. One pager serves one session.
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
type Analyzer struct {
	adv      ma.Adversary
	opts     Options
	retain   int // spaces kept besides the separation horizon; 0 = all
	progress func(HorizonReport)
	pager    *pager.Pager // nil = all-hot, not checkpointable

	// spaces[t] is the horizon-t prefix space, or nil once evicted by the
	// retention policy; retained spaces all share one interner.
	spaces   []*topo.Space
	cur      *topo.Space         // deepest space, never evicted
	decomp   *topo.Decomposition // decomposition at the deepest horizon
	sym      *ma.Group           // quotient group, computed at first Step
	res      *Result
	finished bool
}

// NewAnalyzer creates an analysis session for the adversary. It validates
// the configuration (negative InputDomain, MaxHorizon, MaxRuns,
// LatencySlack or retention are rejected) without building any space yet.
func NewAnalyzer(adv ma.Adversary, options ...AnalyzerOption) (*Analyzer, error) {
	a := &Analyzer{adv: adv, retain: 1}
	for _, o := range options {
		o(a)
	}
	if a.retain < 0 {
		return nil, fmt.Errorf("check: negative space retention %d", a.retain)
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

// SpaceAt returns the retained prefix space at horizon t, or nil if that
// horizon has not been analysed or was evicted by the retention policy
// (WithRetainSpaces): by default only the deepest space and, once found,
// the separation-horizon space are served. With a pager attached
// (WithPager), an evicted horizon is rehydrated from the spilled frontier
// pages instead — automaton states replayed from the base, O(chain) page
// reads — and the rehydrated space is not cached: every call pays the
// rehydration, and dropping the result releases the memory again. Without
// a pager, evicted horizons return nil, as before. All returned spaces
// share one interner, so views are comparable across horizons and with the
// compiled decision map.
func (a *Analyzer) SpaceAt(t int) *topo.Space {
	if t < 0 || t >= len(a.spaces) {
		return nil
	}
	if s := a.spaces[t]; s != nil {
		return s
	}
	if a.pager != nil && a.cur != nil && t <= a.cur.Horizon {
		s, err := a.cur.AncestorAt(t)
		if err != nil {
			return nil
		}
		return s
	}
	return nil
}

// RetainedHorizons returns the horizons whose spaces are still alive, in
// ascending order — the exact set SpaceAt serves.
func (a *Analyzer) RetainedHorizons() []int {
	var out []int
	for t := range a.spaces {
		if a.spaces[t] != nil {
			out = append(out, t)
		}
	}
	return out
}

// Decomposition returns the decomposition at the deepest analysed horizon,
// or nil before the first Step.
func (a *Analyzer) Decomposition() *topo.Decomposition { return a.decomp }

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

// symmetry returns the automorphism group the session quotients by — the
// trivial group under Options.NoSymmetry, ma.Automorphisms(adv)
// otherwise. Computed once and cached: the group identity must be stable
// across Step, Snapshot and restore within one session.
func (a *Analyzer) symmetry() *ma.Group {
	if a.sym == nil {
		if a.opts.NoSymmetry {
			a.sym = ma.TrivialGroup(a.adv.N())
		} else {
			a.sym = ma.Automorphisms(a.adv)
		}
	}
	return a.sym
}

// Symmetry returns the automorphism group the session quotients its
// prefix spaces by (trivial when NoSymmetry is set or the adversary has
// no nontrivial automorphisms).
func (a *Analyzer) Symmetry() *ma.Group { return a.symmetry() }

// buildBase builds the session's horizon-0 base and decomposes it: one item
// per input vector (orbit), whose views are the leaves (p, x_p). Every
// later horizon refines from this partition.
func (a *Analyzer) buildBase(ctx context.Context) error {
	base, err := topo.BuildCtx(ctx, a.adv, a.opts.InputDomain, 0, topo.Config{
		MaxRuns:  a.opts.MaxRuns,
		Pager:    a.pager,
		Symmetry: a.symmetry(),
	})
	if err != nil {
		return fmt.Errorf("check: horizon 0: %w", err)
	}
	d, err := topo.DecomposeCtx(ctx, base)
	if err != nil {
		return fmt.Errorf("check: horizon 0: %w", err)
	}
	a.spaces = append(a.spaces, base)
	a.cur, a.decomp = base, d
	return nil
}

// Step advances the session by exactly one horizon: it extends the prefix
// space incrementally by one round, decomposes it — incrementally too,
// refining the previous horizon's partition via topo.Decomposition.Refine
// (components only ever split under the refinement invariant, so the child
// partition is seeded from the parent's and splits are detected locally;
// the first Step refines from the horizon-0 base) — applies the retention
// policy, updates the running result, and reports. It returns
// ErrHorizonExhausted once MaxHorizon has been analysed, and the context
// error on cancellation (leaving the session resumable).
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
	next, err := a.cur.Extend(ctx, a.cur.Horizon+1)
	if err != nil {
		return HorizonReport{}, fmt.Errorf("check: horizon %d: %w", a.cur.Horizon+1, err)
	}
	d, err := a.decomp.Refine(ctx, next)
	if err != nil {
		return HorizonReport{}, fmt.Errorf("check: horizon %d: %w", next.Horizon, err)
	}
	a.spaces = append(a.spaces, next)
	a.cur = next
	a.decomp = d
	a.evict()

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

// evict applies the retention policy after a completed horizon: every
// space shallower than the retain window is released, except the
// separation-horizon space (the decision map's reference, which SpaceAt
// keeps serving). retain = 0 keeps every horizon.
func (a *Analyzer) evict() {
	if a.retain <= 0 {
		return
	}
	keepFrom := len(a.spaces) - a.retain
	for t := 0; t < keepFrom; t++ {
		if t == a.res.SeparationHorizon {
			continue
		}
		a.spaces[t] = nil
	}
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
	res.Decomposition = a.decomp

	// A witness item is one whose obligations discharged early enough
	// that broadcast completion is owed within the horizon. Candidate
	// broadcasters must be heard-by-all in every witness item by
	// DoneAt + LatencySlack. Under the symmetry quotient the counts are
	// orbit-weighted and every relabeled twin's (permuted) heard mask
	// joins the candidate intersection, so the evidence — including the
	// Notes counts — is byte-identical to a full-space session's.
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
