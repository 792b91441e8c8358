package ckpt

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"topocon/internal/check"
	"topocon/internal/fsx"
	"topocon/internal/ma"
)

// TestAdoptCrossWorkerResume is the cross-worker half of the kill-and-
// resume contract: worker w1 dies mid-horizon, a successor w2 adopts the
// checkpoint into its own namespace and resumes there — the verdict is
// identical to an uninterrupted run and the resumed session starts
// exactly one horizon past the adopted checkpoint (zero re-extension).
func TestAdoptCrossWorkerResume(t *testing.T) {
	opts := check.Options{MaxHorizon: 4}
	for _, adv := range seedAdversaries() {
		want, err := check.Consensus(adv, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := t.TempDir()
		w1 := filepath.Join(base, "cells", "w1", "cell")
		w2 := filepath.Join(base, "cells", "w2", "cell")
		if !interruptedRun(t, adv, w1, opts, 2) {
			continue // separated before the kill; nothing to adopt
		}

		horizon, err := Adopt(w1, w2)
		if err != nil {
			t.Fatalf("%s: Adopt: %v", adv.Name(), err)
		}
		if horizon < 2 {
			t.Errorf("%s: adopted checkpoint at horizon %d, want ≥ 2", adv.Name(), horizon)
		}
		if Exists(w1) {
			t.Errorf("%s: source manifest still present after adoption", adv.Name())
		}

		firstResumed := -1
		cfg := Config{Dir: w2, HotBytes: 4 << 10, OnHorizon: func(r check.HorizonReport) {
			if firstResumed < 0 {
				firstResumed = r.Horizon
			}
		}}
		got, info, err := RunCheck(context.Background(), adv, cfg, opts, 1)
		if err != nil {
			t.Fatalf("%s: resumed run in successor namespace: %v", adv.Name(), err)
		}
		if !info.Resumed || info.ResumedAt != horizon {
			t.Errorf("%s: successor resumed=%v at %d, want resume at adopted horizon %d",
				adv.Name(), info.Resumed, info.ResumedAt, horizon)
		}
		if firstResumed >= 0 && firstResumed != horizon+1 {
			t.Errorf("%s: successor re-extended: first analysed horizon %d after adopting at %d",
				adv.Name(), firstResumed, horizon)
		}
		if got.Verdict != want.Verdict || got.SeparationHorizon != want.SeparationHorizon ||
			got.BroadcastHorizon != want.BroadcastHorizon || got.Broadcaster != want.Broadcaster ||
			got.Exact != want.Exact {
			t.Errorf("%s: adopted %v sep=%d bcast=%d p*=%d vs uninterrupted %v sep=%d bcast=%d p*=%d",
				adv.Name(), got.Verdict, got.SeparationHorizon, got.BroadcastHorizon, got.Broadcaster,
				want.Verdict, want.SeparationHorizon, want.BroadcastHorizon, want.Broadcaster)
		}
		if (want.Map == nil) != (got.Map == nil) ||
			(want.Map != nil && (want.Map.Size() != got.Map.Size() || want.Map.Reference() != got.Map.Reference())) {
			t.Errorf("%s: decision maps differ after cross-worker resume", adv.Name())
		}
	}
}

// TestAdoptMissingSourceIsNoCheckpoint: a dead worker that never saved
// yields ErrNoCheckpoint, which callers treat as "start fresh".
func TestAdoptMissingSourceIsNoCheckpoint(t *testing.T) {
	base := t.TempDir()
	_, err := Adopt(filepath.Join(base, "nope"), filepath.Join(base, "dst"))
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Adopt of missing source = %v, want ErrNoCheckpoint", err)
	}
	if _, serr := os.Stat(filepath.Join(base, "dst")); !os.IsNotExist(serr) {
		t.Fatal("failed adoption created the destination")
	}
}

// TestAdoptCorruptSourceQuarantined: a corrupt source checkpoint is moved
// aside (bytes preserved) and reported as ErrNoCheckpoint; the successor
// recomputes fresh rather than resuming wrong.
func TestAdoptCorruptSourceQuarantined(t *testing.T) {
	src, _ := corruptibleCheckpoint(t)
	data, err := os.ReadFile(manifestPath(src))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(manifestPath(src), data, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(filepath.Dir(src), "successor")
	if _, err := Adopt(src, dst); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Adopt of corrupt source = %v, want ErrNoCheckpoint", err)
	}
	if Exists(src) {
		t.Fatal("corrupt manifest still in place after quarantine")
	}
	entries, err := os.ReadDir(filepath.Join(src, fsx.QuarantineDir))
	if err != nil || len(entries) == 0 {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
}

// TestAdoptIntoDirtyDestination: the successor's own abandoned state in
// the destination is quarantined, not merged with the adopted artifacts.
func TestAdoptIntoDirtyDestination(t *testing.T) {
	src, opts := corruptibleCheckpoint(t)
	dst := filepath.Join(filepath.Dir(src), "successor")
	// Give the successor namespace an abandoned checkpoint of its own.
	if !interruptedRun(t, ma.LossyLink3(), dst, opts, 1) {
		t.Fatal("setup run for the dirty destination was not interrupted")
	}
	horizon, err := Adopt(src, dst)
	if err != nil {
		t.Fatalf("Adopt into dirty destination: %v", err)
	}
	if horizon < 2 {
		t.Fatalf("adopted horizon %d, want the deeper source checkpoint (≥ 2)", horizon)
	}
	a, err := Load(dst, ma.LossyLink3(), 0)
	if err != nil {
		t.Fatalf("Load after adoption: %v", err)
	}
	if a.Horizon() != horizon {
		t.Fatalf("loaded horizon %d, want adopted %d", a.Horizon(), horizon)
	}
	entries, err := os.ReadDir(filepath.Join(dst, fsx.QuarantineDir))
	if err != nil || len(entries) == 0 {
		t.Fatalf("destination's stale state not quarantined: %v", err)
	}
}
