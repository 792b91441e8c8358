package main

import (
	"context"
	"fmt"

	"topocon/internal/baseline"
	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/topo"
)

// maxGraphsForChainSearch mirrors the Analyzer's gate on the bounded-chain
// bivalence search (check.maxGraphsForChainSearch).
const maxGraphsForChainSearch = 10

// sessionStats is what a traced session reports besides its verdict.
type sessionStats struct {
	Verdict           check.Verdict
	SeparationHorizon int
	Horizon           int
	Components        int
	Mixed             int
	// Interned is the item count of the deepest horizon, Full the size of
	// the full space it represents, Extended the items interned over every
	// extended horizon.
	Interned, Full, Extended int
	Views                    int
	DecisiveViews            int
}

// tracedSession runs one analysis to a verdict through the modules' public
// functions, in the order check.Analyzer calls them, with a span around each
// call: the symmetry group, topo.BuildCtx, then per horizon Space.Extend and
// DecomposeCtx (first horizon) or Refine, the component summaries, and
// check.BuildDecisionMap at separation; without separation the certificate
// searches baseline.FindPumpCertificate and ProveBivalent. Non-compact
// adversaries take the Theorem 6.7 route, which has no public entry below
// the Analyzer, so they run as one check.Analyzer span.
func tracedSession(ctx context.Context, tr *tracer, parent int, adv ma.Adversary, opts check.Options, pg *pager.Pager) (sessionStats, error) {
	opts, err := opts.Resolved()
	if err != nil {
		return sessionStats{}, err
	}
	st := sessionStats{SeparationHorizon: -1}
	if !adv.Compact() {
		var res *check.Result
		tr.do("check.analyzer", parent, func() {
			var a *check.Analyzer
			if a, err = check.NewAnalyzer(adv, check.WithOptions(opts)); err == nil {
				res, err = a.Check(ctx)
			}
		})
		if err != nil {
			return st, err
		}
		st.Verdict, st.SeparationHorizon, st.Horizon = res.Verdict, res.SeparationHorizon, res.Horizon
		st.Components, st.Mixed = res.Components, res.MixedComponents
		return st, nil
	}

	var grp *ma.Group
	tr.do("ma.automorphisms", parent, func() {
		if opts.NoSymmetry {
			grp = ma.TrivialGroup(adv.N())
		} else {
			grp = ma.Automorphisms(adv)
		}
	})
	var cur *topo.Space
	tr.do("topo.build", parent, func() {
		cur, err = topo.BuildCtx(ctx, adv, opts.InputDomain, 0, topo.Config{
			MaxRuns: opts.MaxRuns, Parallelism: 1, Pager: pg, Symmetry: grp,
		})
	})
	if err != nil {
		return st, err
	}
	var d *topo.Decomposition
	broadcast := -1
	for h := 1; h <= opts.MaxHorizon && (st.SeparationHorizon < 0 || broadcast < 0); h++ {
		var next *topo.Space
		tr.do("topo.extend", parent, func() { next, err = cur.Extend(ctx, h) })
		if err != nil {
			return st, fmt.Errorf("horizon %d: %w", h, err)
		}
		if d == nil {
			tr.do("topo.decompose", parent, func() { d, err = topo.DecomposeCtx(ctx, next) })
		} else {
			tr.do("topo.refine", parent, func() { d, err = d.Refine(ctx, next) })
		}
		if err != nil {
			return st, fmt.Errorf("horizon %d: %w", h, err)
		}
		cur = next
		st.Extended += next.Len()
		var broadcastable bool
		tr.do("topo.summary", parent, func() {
			st.Mixed = len(d.MixedComponents())
			broadcastable = d.ValentComponentsBroadcastable()
		})
		st.Horizon, st.Components = h, len(d.Comps)
		if st.SeparationHorizon < 0 && st.Mixed == 0 {
			st.SeparationHorizon = h
			tr.do("check.decision_map", parent, func() {
				st.DecisiveViews = check.BuildDecisionMap(d, opts.DefaultValue).Size()
			})
		}
		if broadcast < 0 && broadcastable {
			broadcast = h
		}
	}
	st.Interned, st.Full, st.Views = cur.Len(), cur.FullLen(), cur.Interner.Size()

	st.Verdict = check.VerdictUnknown
	if st.SeparationHorizon >= 0 {
		st.Verdict = check.VerdictSolvable
		return st, nil
	}
	chainLen := opts.EffectiveCertChainLen(adv.N())
	ob, ok := ma.Normalize(adv).(*ma.Oblivious)
	if !ok || chainLen <= 0 {
		return st, nil
	}
	found := false
	tr.do("baseline.pump", parent, func() { _, found = baseline.FindPumpCertificate(ob, opts.InputDomain) })
	if !found && len(ob.Graphs()) <= maxGraphsForChainSearch {
		tr.do("baseline.bivalence", parent, func() { _, found = baseline.ProveBivalent(ob, opts.InputDomain, chainLen) })
	}
	if found {
		st.Verdict = check.VerdictImpossible
	}
	return st, nil
}
