package main

import (
	"strings"
	"testing"

	"topocon"
)

func TestBuildAdversaryPresets(t *testing.T) {
	tests := []struct {
		preset  string
		n       int
		graphs  string
		wantErr bool
	}{
		{"lossy2", 2, "", false},
		{"lossy3", 2, "", false},
		{"unrestricted", 2, "", false},
		{"stable", 2, "", false},
		{"committed", 2, "", false},
		{"stable", 3, "", true},
		{"committed", 3, "", true},
		{"bogus", 2, "", true},
		{"", 2, "", true},
		{"", 2, "1->2 | 2->1", false},
		{"", 2, "1->9", true},
	}
	for _, tt := range tests {
		adv, err := buildAdversary(tt.preset, tt.n, tt.graphs, 1, 2)
		if tt.wantErr {
			if err == nil {
				t.Errorf("preset=%q graphs=%q: want error, got %v", tt.preset, tt.graphs, adv)
			}
			continue
		}
		if err != nil {
			t.Errorf("preset=%q graphs=%q: %v", tt.preset, tt.graphs, err)
			continue
		}
		if adv.N() != tt.n {
			t.Errorf("preset=%q: N=%d, want %d", tt.preset, adv.N(), tt.n)
		}
	}
}

func TestResolveWorkloadScenario(t *testing.T) {
	// A built-in scenario name used as -preset resolves through the
	// registry and carries the spec's options.
	adv, opts, err := resolveWorkload("", "stable-w2", 2, "", 1, 2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Compact() {
		t.Error("stable-w2 must resolve to the non-compact eventually-stable adversary")
	}
	if opts.MaxHorizon != 5 {
		t.Errorf("MaxHorizon = %d, want the spec's 5", opts.MaxHorizon)
	}
	// Classic presets that are not scenario names keep working.
	if _, _, err := resolveWorkload("", "stable", 2, "", 1, 2, 5, 2); err != nil {
		t.Fatal(err)
	}
	// A missing scenario file is a resolution error.
	if _, _, err := resolveWorkload("/no/such/scenario.json", "", 2, "", 1, 2, 5, 2); err == nil {
		t.Error("missing scenario file: want error")
	}
}

func TestValidateWorkload(t *testing.T) {
	if err := validateWorkload(topocon.LossyLink2(), 4); err != nil {
		t.Errorf("validateWorkload(lossy2) = %v", err)
	}
}

func TestSummaryRendering(t *testing.T) {
	res, err := topocon.CheckConsensus(topocon.LossyLink3(), topocon.CheckOptions{MaxHorizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	for _, want := range []string{"impossible", "certificate", "alternating pump"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
	res2, err := topocon.CheckConsensus(topocon.LossyLink2(), topocon.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Summary(), "separation: horizon 1") {
		t.Errorf("Summary missing separation line:\n%s", res2.Summary())
	}
}

// TestPagerBudgetNeedsDirectory: a pager budget without -checkpoint-dir
// would be silently ignored, so it is rejected.
func TestPagerBudgetNeedsDirectory(t *testing.T) {
	for _, tc := range []struct {
		flags   ckptFlags
		wantErr bool
	}{
		{ckptFlags{}, false},
		{ckptFlags{dir: "ckpt"}, false},
		{ckptFlags{dir: "ckpt", hotBytes: 262144}, false},
		{ckptFlags{hotBytes: 262144}, true},
		{ckptFlags{hotBytes: -1}, true},
	} {
		if err := tc.flags.validate(); (err != nil) != tc.wantErr {
			t.Errorf("%+v: validate() = %v, want error %v", tc.flags, err, tc.wantErr)
		}
	}
}
