package check

import (
	"errors"
	"fmt"

	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
	"topocon/internal/topo"
)

// SessionSnapshot is the serializable state of a mid-run Analyzer session:
// everything needed to resume in a fresh process except the interner blob
// and the frontier pages themselves, which live in the pager's directory
// and are carried by reference (internal/ckpt frames, checksums and
// validates the whole on disk).
//
// Automaton states are deliberately absent (ma.State is opaque); restore
// recomputes them by deterministic replay over the persisted round graphs,
// and the decision map — when a separation horizon was already found — is
// recompiled from the restored separation-horizon decomposition, which
// reproduces it exactly (BuildDecisionMap is deterministic and the
// imported interner reassigns identical ViewIDs).
type SessionSnapshot struct {
	// Options are the session's resolved options; a resume must run under
	// exactly these (the checkpoint is only valid for the configuration
	// that produced it).
	Options Options `json:"options"`
	Retain  int     `json:"retain"`

	// Horizon is the deepest fully-analysed horizon; Rounds reference its
	// frontier chain's persisted pages, horizons 1..Horizon ascending.
	Horizon int               `json:"horizon"`
	Rounds  []topo.ChainRound `json:"rounds"`

	// Decomp is the decomposition at Horizon (the Refine parent of the next
	// Step). SepDecomp is the separation-horizon decomposition when
	// separation was found strictly earlier; nil if unseen or equal to
	// Decomp.
	Decomp    *topo.DecompSnapshot `json:"decomp"`
	SepDecomp *topo.DecompSnapshot `json:"sepDecomp,omitempty"`

	SeparationHorizon int `json:"separationHorizon"`
	BroadcastHorizon  int `json:"broadcastHorizon"`
}

// Snapshot captures the session for a checkpoint. It requires a pager
// (WithPager) and at least one completed Step, and must not race a running
// Step — call it from the WithProgress callback (which fires after the
// horizon commits) or between Step calls. Snapshot persists any
// not-yet-persisted round of the current chain (the head) as a side effect;
// it does not advance the session.
func (a *Analyzer) Snapshot() (*SessionSnapshot, error) {
	if a.pager == nil {
		return nil, errors.New("check: Snapshot requires a pager (WithPager)")
	}
	if a.cur == nil || a.cur.Horizon == 0 || a.decomp == nil {
		return nil, errors.New("check: Snapshot before the first completed Step")
	}
	if a.finished {
		return nil, errors.New("check: Snapshot of a finished session (persist the verdict instead)")
	}
	rounds, err := a.cur.SnapshotChain()
	if err != nil {
		return nil, err
	}
	snap := &SessionSnapshot{
		Options:           a.opts,
		Retain:            a.retain,
		Horizon:           a.cur.Horizon,
		Rounds:            rounds,
		Decomp:            topo.SnapshotDecomposition(a.decomp),
		SeparationHorizon: a.res.SeparationHorizon,
		BroadcastHorizon:  a.res.BroadcastHorizon,
	}
	if sep := a.res.SeparationHorizon; sep >= 0 && sep != a.cur.Horizon {
		if a.res.Decomposition == nil {
			return nil, fmt.Errorf("check: Snapshot: separation horizon %d found but its decomposition is gone", sep)
		}
		snap.SepDecomp = topo.SnapshotDecomposition(a.res.Decomposition)
	}
	return snap, nil
}

// RestoreAnalyzer rebuilds an Analyzer session from a snapshot, the
// imported interner of the checkpointed session, and a pager over the page
// directory the snapshot's rounds reference. The restored session continues
// with plain Step/Check calls; the next Step extends from the restored
// horizon — already-checkpointed horizons are never re-extended (the
// restored chain satisfies Refine's parent-linkage precondition by
// construction).
//
// Validation is strict and structural: chain shape, decomposition shape and
// page checksums all fail the restore cleanly. Caller-level validation —
// adversary fingerprint, options match — is internal/ckpt's job; pass extra
// options (WithProgress, …) for the new process's observers only, never to
// change the analysis configuration.
func RestoreAnalyzer(adv ma.Adversary, snap *SessionSnapshot, interner *ptg.Interner, pg *pager.Pager, extra ...AnalyzerOption) (*Analyzer, error) {
	if snap == nil || interner == nil || pg == nil {
		return nil, errors.New("check: RestoreAnalyzer: snapshot, interner and pager are required")
	}
	if snap.Horizon < 1 || len(snap.Rounds) != snap.Horizon {
		return nil, fmt.Errorf("check: RestoreAnalyzer: snapshot at horizon %d carries %d rounds", snap.Horizon, len(snap.Rounds))
	}
	if snap.Decomp == nil {
		return nil, errors.New("check: RestoreAnalyzer: snapshot carries no decomposition")
	}
	if snap.SeparationHorizon > snap.Horizon || snap.BroadcastHorizon > snap.Horizon {
		return nil, fmt.Errorf("check: RestoreAnalyzer: separation/broadcast horizons (%d, %d) beyond snapshot horizon %d",
			snap.SeparationHorizon, snap.BroadcastHorizon, snap.Horizon)
	}
	options := append([]AnalyzerOption{
		WithOptions(snap.Options),
		WithRetainSpaces(snap.Retain),
		WithPager(pg),
	}, extra...)
	a, err := NewAnalyzer(adv, options...)
	if err != nil {
		return nil, err
	}
	if a.opts != snap.Options {
		return nil, fmt.Errorf("check: RestoreAnalyzer: snapshot options %+v do not resolve to themselves (got %+v)", snap.Options, a.opts)
	}
	cur, err := topo.RestoreChain(topo.ChainSpec{
		Adversary:   adv,
		InputDomain: a.opts.InputDomain,
		MaxRuns:     a.opts.MaxRuns,
		Interner:    interner,
		Pager:       pg,
		Rounds:      snap.Rounds,
		// The quotient is derived state (pages are symmetry-agnostic): the
		// restored chain re-derives the same group from the same adversary
		// and options, so representative selection replays identically.
		Symmetry: a.symmetry(),
	})
	if err != nil {
		return nil, err
	}
	decomp, err := topo.RestoreDecomposition(cur, snap.Decomp)
	if err != nil {
		return nil, err
	}
	a.spaces = make([]*topo.Space, snap.Horizon+1)
	a.spaces[snap.Horizon] = cur
	a.cur = cur
	a.decomp = decomp

	res := a.res
	res.Horizon = snap.Horizon
	res.Components = decomp.FullComponents()
	res.MixedComponents = decomp.FullMixedComponents()
	res.BroadcastHorizon = snap.BroadcastHorizon
	if sep := snap.SeparationHorizon; sep >= 0 {
		res.SeparationHorizon = sep
		sepSpace := cur
		sepDecomp := decomp
		if sep != snap.Horizon {
			if snap.SepDecomp == nil {
				return nil, fmt.Errorf("check: RestoreAnalyzer: separation at %d < horizon %d but no separation decomposition", sep, snap.Horizon)
			}
			if sepSpace, err = cur.AncestorAt(sep); err != nil {
				return nil, err
			}
			if sepDecomp, err = topo.RestoreDecomposition(sepSpace, snap.SepDecomp); err != nil {
				return nil, err
			}
			a.spaces[sep] = sepSpace
		}
		res.Space = sepSpace
		res.Decomposition = sepDecomp
		res.Map = BuildDecisionMap(sepDecomp, a.opts.DefaultValue)
	}
	return a, nil
}
