package sweep_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"topocon"
	"topocon/internal/check"
	"topocon/internal/scenario"
	"topocon/internal/sweep"
)

// TestSweepRecomputesOverStaleCheckpoint: a paging cell never resumes. A
// valid session checkpoint of the cell, left in its directory by a run
// killed after horizon 2, is moved into the checkpoint dir's quarantine/
// byte for byte; the cell is recomputed from horizon 1 to the verdict,
// horizon and runs of a plain sweep, still spills under a 1-byte budget,
// and leaves no cell directory behind. (The planting goes through the
// facade's RunCheckpointed, the one-scenario session checkpoint.)
func TestSweepRecomputesOverStaleCheckpoint(t *testing.T) {
	tpl, err := scenario.ParseTemplate([]byte(`{
	  "name": "ckpt-cell",
	  "params": {"f": "1..1"},
	  "n": 2,
	  "adversary": {"op": "loss-bounded", "f": "${f}"},
	  "check": {"maxHorizon": 5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), tpl, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[0].Scenario
	key, err := sweep.KeyFor(sc.Adversary, sc.Options)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, info, err := topocon.RunCheckpointed(ctx, sc.Adversary, topocon.CheckpointConfig{
		Dir:      filepath.Join(dir, sweep.CellDir(key)),
		HotBytes: 1,
		OnHorizon: func(r check.HorizonReport) {
			if r.Horizon == 2 {
				cancel()
			}
		},
	}, sc.Options, 0)
	if !errors.Is(err, context.Canceled) || info.Written != 2 {
		t.Fatalf("planting: err = %v after %d checkpoints, want a cancel after 2", err, info.Written)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, sweep.CellDir(key), "ckpt.manifest"))
	if err != nil {
		t.Fatal(err)
	}

	var horizons []int
	report, err := sweep.Run(context.Background(), tpl, sweep.Config{
		CheckpointDir: dir,
		PagerHotBytes: 1,
		CellProgress: func(_ string, rep check.HorizonReport) {
			horizons = append(horizons, rep.Horizon)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, w := report.Cells[0], want.Cells[0]
	if c.Status != sweep.StatusDone {
		t.Fatalf("cell: status %s (%s)", c.Status, c.Err)
	}
	if len(horizons) == 0 || horizons[0] != 1 {
		t.Errorf("analysed horizons %v: the cell must be recomputed from horizon 1", horizons)
	}
	if c.Verdict != w.Verdict || c.Exact != w.Exact || c.SeparationHorizon != w.SeparationHorizon ||
		c.Horizon != w.Horizon || c.Runs != w.Runs {
		t.Errorf("paged cell %s/%v/%d/%d/%d differs from the plain sweep's %s/%v/%d/%d/%d",
			c.Verdict, c.Exact, c.SeparationHorizon, c.Horizon, c.Runs,
			w.Verdict, w.Exact, w.SeparationHorizon, w.Horizon, w.Runs)
	}
	// Faults need not occur here: extension only reads the head round and
	// the certificate search never walks the chain. Spills must.
	if p := report.Summary.Paging; p.PagesSpilled == 0 || p.HotBytes == 0 {
		t.Errorf("paging summary %+v: a 1-byte budget must spill", p)
	}
	// The stale checkpoint sits byte for byte under quarantine/, and the
	// cell's scratch directory is gone.
	stale, _ := filepath.Glob(filepath.Join(dir, "quarantine", "cell.*", sweep.CellDir(key), "ckpt.manifest"))
	if len(stale) != 1 {
		t.Fatalf("stale checkpoint not quarantined: %v", stale)
	}
	if got, err := os.ReadFile(stale[0]); err != nil || !bytes.Equal(got, manifest) {
		t.Errorf("quarantined manifest differs from the planted one (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "quarantine" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("checkpoint dir holds %v, want only quarantine/", names)
	}
	// A sweep without a CheckpointDir reports no paging block at all.
	if want.Summary.Paging != (sweep.PagingSummary{}) {
		t.Errorf("plain sweep reports paging traffic: %+v", want.Summary.Paging)
	}
}
