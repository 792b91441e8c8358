package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/scenario"
	"topocon/internal/sim"
)

// saturationDoc is the engine's canonical test grid: on n=2 the loss budget
// saturates at f=2 (both non-self messages lost), so f ∈ {2,3,4} are
// behaviourally isomorphic and the 10-cell grid holds only 6 distinct keys.
const saturationDoc = `{
  "name": "lossbound-n2",
  "params": {"f": "0..4", "horizon": [3, 4]},
  "n": 2,
  "adversary": {"op": "loss-bounded", "f": "${f}"},
  "check": {"maxHorizon": "${horizon}"}
}`

// TestKeyForResolvesDefaults: the cache-key contract demands that a zero
// option field and its effective default collide — including MaxRuns and
// the process-count-adaptive CertChainLen, whose defaults are applied
// deeper in the stack than Options.Resolved's scalars.
func TestKeyForResolvesDefaults(t *testing.T) {
	adv := ma.LossyLink3()
	zero, err := KeyFor(adv, check.Options{MaxHorizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := KeyFor(adv, check.Options{
		MaxHorizon:   4,
		InputDomain:  2,
		MaxRuns:      4_000_000, // topo.DefaultMaxRuns
		CertChainLen: 5,         // the adaptive default for n = 2
		LatencySlack: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if zero != explicit {
		t.Errorf("zero-valued and explicitly-defaulted options split the key:\n%+v\n%+v", zero, explicit)
	}
	if !zero.CertEligible {
		t.Error("oblivious adversary must be certificate-eligible")
	}
	deeper, err := KeyFor(adv, check.Options{MaxHorizon: 5})
	if err != nil {
		t.Fatal(err)
	}
	if zero == deeper {
		t.Error("different horizons must not share a key")
	}
}

// TestKeyForNormalizesIdentitySpellings: identity spellings of the same
// adversary — Intersect(a, Unrestricted) and Concat(x, 0, a) — must
// produce byte-identical cache keys, including the CertEligible bit, which
// is decided on the normal form rather than the spelled expression's
// concrete type. A split here silently re-solves cached cells and lets the
// same behaviour carry different certificate policies.
func TestKeyForNormalizesIdentitySpellings(t *testing.T) {
	adv := ma.LossyLink3()
	opts := check.Options{MaxHorizon: 4}
	want, err := KeyFor(adv, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.CertEligible {
		t.Fatal("oblivious adversary must be certificate-eligible")
	}
	spellings := map[string]ma.Adversary{
		"Intersect(a, U)":   ma.MustIntersect("", adv, ma.Unrestricted(2)),
		"Intersect(U, a)":   ma.MustIntersect("", ma.Unrestricted(2), adv),
		"Concat(U, 0, a)":   ma.MustConcat("", ma.Unrestricted(2), 0, adv),
		"Concat(a', 0, a)":  ma.MustConcat("", ma.LossyLink2(), 0, adv),
		"nested identities": ma.MustIntersect("", ma.MustConcat("", ma.Unrestricted(2), 0, adv), ma.Unrestricted(2)),
	}
	for label, spelled := range spellings {
		got, err := KeyFor(spelled, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != want {
			t.Errorf("%s splits the cache key:\n  spelled %+v\n  normal  %+v", label, got, want)
		}
	}
}

func mustTemplate(t *testing.T, doc string) *scenario.Template {
	t.Helper()
	tpl, err := scenario.ParseTemplate([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestSweepSaturationGrid(t *testing.T) {
	tpl := mustTemplate(t, saturationDoc)
	report, err := Run(context.Background(), tpl, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 10 {
		t.Fatalf("report has %d cells, want 10", len(report.Cells))
	}
	// f=0 leaves only the complete graph: solvable. f=1 is the classic
	// lossy link {<-,<->,->}: impossible. f ≥ 2 is the unrestricted n=2
	// adversary: impossible.
	wantVerdict := map[int]string{0: "solvable", 1: "impossible", 2: "impossible", 3: "impossible", 4: "impossible"}
	for _, c := range report.Cells {
		if c.Status != StatusDone {
			t.Fatalf("cell %s: status %s (%s)", c.Name, c.Status, c.Err)
		}
		f := bindingValue(t, c, "f")
		if c.Verdict != wantVerdict[f] {
			t.Errorf("cell %s: verdict %s, want %s", c.Name, c.Verdict, wantVerdict[f])
		}
		if c.Fingerprint == "" {
			t.Errorf("cell %s: missing fingerprint", c.Name)
		}
		if c.Runs <= 0 || c.Horizon <= 0 {
			t.Errorf("cell %s: runs %d, horizon %d", c.Name, c.Runs, c.Horizon)
		}
	}
	// Sequential execution in grid order makes cache attribution exact:
	// f ∈ {3,4} replay the f=2 keys at both horizons.
	s := report.Summary
	if s.CacheHits != 4 || s.CacheMisses != 6 || s.DistinctKeys != 6 {
		t.Errorf("cache stats = %d hits / %d misses / %d keys, want 4/6/6", s.CacheHits, s.CacheMisses, s.DistinctKeys)
	}
	if s.Done != 10 || s.Errors != 0 || s.Cancelled != 0 || s.Mismatches != 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.Solvable != 2 || s.Impossible != 8 {
		t.Errorf("verdict counts = %+v", s)
	}
	// Isomorphic cells report identical outcomes.
	byKey := map[string]CellResult{}
	for _, c := range report.Cells {
		key := c.Fingerprint + "|" + itoa(bindingValue(t, c, "horizon"))
		if prev, ok := byKey[key]; ok {
			if prev.Verdict != c.Verdict || prev.Runs != c.Runs || prev.SeparationHorizon != c.SeparationHorizon {
				t.Errorf("isomorphic cells %s and %s disagree", prev.Name, c.Name)
			}
		} else {
			byKey[key] = c
		}
	}
	table := report.Table()
	for _, want := range []string{"lossbound-n2[f=0,horizon=3]", "hit", "miss", "4 hits / 6 misses"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func bindingValue(t *testing.T, c CellResult, param string) int {
	t.Helper()
	for _, b := range c.Bindings {
		if b.Param == param {
			return b.Value
		}
	}
	t.Fatalf("cell %s has no binding %q", c.Name, param)
	return 0
}

func itoa(v int) string {
	return string(rune('0' + v))
}

// TestSweepCacheSolvesKeyOnce: under a parallel worker pool, every distinct
// cache key constructs exactly one Analyzer — concurrent isomorphic cells
// wait for the in-flight solve instead of duplicating it. Run under -race
// in CI.
func TestSweepCacheSolvesKeyOnce(t *testing.T) {
	// One horizon, so fingerprints and keys are 1:1; f ∈ {2..5} are all
	// isomorphic to the unrestricted adversary — one key for four cells.
	doc := `{
	  "name": "once",
	  "params": {"f": "2..5"},
	  "n": 2,
	  "adversary": {"op": "loss-bounded", "f": "${f}"},
	  "check": {"maxHorizon": 3}
	}`
	tpl := mustTemplate(t, doc)
	for round := 0; round < 5; round++ {
		var mu sync.Mutex
		built := map[string]int{}
		report, err := Run(context.Background(), tpl, Config{
			Workers: 8,
			OnAnalyzerBuilt: func(fp string) {
				mu.Lock()
				built[fp]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for fp, n := range built {
			if n != 1 {
				t.Fatalf("round %d: fingerprint %.12s solved %d times, want once", round, fp, n)
			}
		}
		if len(built) != report.Summary.DistinctKeys || report.Summary.DistinctKeys != 1 {
			t.Fatalf("round %d: %d constructions, %d distinct keys, want 1/1", round, len(built), report.Summary.DistinctKeys)
		}
		if report.Summary.CacheHits != 3 || report.Summary.CacheMisses != 1 {
			t.Fatalf("round %d: cache stats %+v", round, report.Summary)
		}
	}
}

// TestSweepCancellationMidSweep: cancelling a running sweep yields the
// context error plus a well-formed partial report — finished cells keep
// their verdicts, unstarted cells report cancelled, and the summary adds up.
func TestSweepCancellationMidSweep(t *testing.T) {
	tpl := mustTemplate(t, saturationDoc)
	ctx, cancel := context.WithCancel(context.Background())
	finished := 0
	report, err := Run(ctx, tpl, Config{
		Workers: 2,
		Progress: func(c CellResult) {
			finished++
			if finished == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(report.Cells) != 10 {
		t.Fatalf("partial report has %d cells, want all 10 slots", len(report.Cells))
	}
	s := report.Summary
	if s.Done+s.Errors+s.Cancelled != s.Cells || s.Cells != 10 {
		t.Errorf("summary does not partition the grid: %+v", s)
	}
	if s.Done < 3 {
		t.Errorf("only %d cells done before cancellation took effect", s.Done)
	}
	if s.Cancelled == 0 {
		t.Error("no cell reports cancellation")
	}
	for _, c := range report.Cells {
		switch c.Status {
		case StatusDone:
			if c.Verdict == "" {
				t.Errorf("done cell %s has no verdict", c.Name)
			}
		case StatusCancelled:
			if c.Verdict != "" || c.Err != "" {
				t.Errorf("cancelled cell %s carries results: %+v", c.Name, c)
			}
		case StatusError:
			t.Errorf("unexpected error cell %s: %s", c.Name, c.Err)
		}
	}
	if _, err := report.JSON(); err != nil {
		t.Fatalf("partial report does not marshal: %v", err)
	}
}

// TestSweepPerCellTimeout: an expired per-cell budget fails that cell with
// a timeout error and does not poison the cache for later cells.
func TestSweepPerCellTimeout(t *testing.T) {
	tpl := mustTemplate(t, `{
	  "name": "tiny",
	  "params": {"f": "1..2"},
	  "n": 2,
	  "adversary": {"op": "loss-bounded", "f": "${f}"},
	  "check": {"maxHorizon": 3}
	}`)
	report, err := Run(context.Background(), tpl, Config{Workers: 1, CellTimeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := report.Summary
	if s.Errors != 2 || s.Done != 0 {
		t.Fatalf("summary = %+v, want both cells timing out", s)
	}
	for _, c := range report.Cells {
		if c.Status != StatusError || !strings.Contains(c.Err, "cell timeout") {
			t.Errorf("cell %s: status %s err %q", c.Name, c.Status, c.Err)
		}
	}
	if s.DistinctKeys != 0 {
		t.Errorf("timed-out keys were cached: %d", s.DistinctKeys)
	}
}

// TestSweepSharedCache: a cache shared across sweep runs turns the second
// run into pure hits.
func TestSweepSharedCache(t *testing.T) {
	tpl := mustTemplate(t, saturationDoc)
	cache := NewCache()
	first, err := Run(context.Background(), tpl, Config{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.Summary.CacheMisses != 6 {
		t.Fatalf("first run misses = %d, want 6", first.Summary.CacheMisses)
	}
	second, err := Run(context.Background(), tpl, Config{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.Summary.CacheHits != 10 || second.Summary.CacheMisses != 0 {
		t.Fatalf("second run cache stats = %+v, want all hits", second.Summary)
	}
}

// TestSweepExpectMatch: cells inherit the template's pinned verdict and the
// report records matches and mismatches.
func TestSweepExpectMatch(t *testing.T) {
	tpl := mustTemplate(t, `{
	  "name": "pinned",
	  "params": {"w": "2..3"},
	  "n": 2,
	  "graphs": {"L": "2->1", "R": "1->2"},
	  "adversary": {"op": "window-stable", "arg": {"op": "oblivious", "graphs": ["L", "R"]}, "window": "${w}"},
	  "check": {"maxHorizon": 4},
	  "expect": "unknown"
	}`)
	report, err := Run(context.Background(), tpl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range report.Cells {
		if c.Expect != "unknown" || c.Match == nil || !*c.Match {
			t.Errorf("cell %s: expect %q match %v", c.Name, c.Expect, c.Match)
		}
	}
	if report.Summary.Mismatches != 0 {
		t.Errorf("mismatches = %d", report.Summary.Mismatches)
	}
}

// TestSweepDifferentialGridCells: every solvable grid cell's verdict is
// checked against executable behaviour — the extracted rule, run by the
// message-passing full-information protocol over every admissible run of
// the cell's adversary, must satisfy (T), (A), (V). (The deep differential
// harness over the whole corpus lives in the root package; this guards the
// engine's grid directly.)
func TestSweepDifferentialGridCells(t *testing.T) {
	tpl := mustTemplate(t, saturationDoc)
	cells, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(context.Background(), tpl, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	solvable := 0
	for i, c := range report.Cells {
		if c.Status != StatusDone || c.Verdict != "solvable" {
			continue
		}
		solvable++
		sc := cells[i].Scenario
		res, err := check.Consensus(sc.Adversary, sc.Options)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rule == nil {
			t.Fatalf("cell %s: solvable without a rule", c.Name)
		}
		horizon := res.SeparationHorizon + 1
		sim.Exhaustive(sc.Adversary, sim.NewFullInfo(res.Rule), 2, horizon,
			func(tr *sim.Trace, _ ma.Prefix) bool {
				for _, v := range sim.CheckConsensus(tr, true) {
					t.Errorf("cell %s: %v", c.Name, v)
				}
				return true
			})
	}
	if solvable == 0 {
		t.Fatal("grid produced no solvable cell to check")
	}
}
