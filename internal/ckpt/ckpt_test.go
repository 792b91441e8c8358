package ckpt

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topocon/internal/check"
	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/ptg"
)

// Exists reports whether dir holds a (syntactically present, not yet
// validated) checkpoint manifest.
func Exists(dir string) bool {
	_, err := os.Stat(manifestPath(dir))
	return err == nil
}

func seedAdversaries() []ma.Adversary {
	stable := ma.MustEventuallyStable("",
		[]graph.Graph{graph.Left, graph.Both}, []graph.Graph{graph.Right}, 1)
	return []ma.Adversary{
		ma.LossyLink2(),
		ma.LossyLink3(),
		ma.LossBounded(2, 1),
		ma.MustDeadlineStable(stable, 2),
		stable,
	}
}

// interruptedRun drives RunCheck with a context that cancels once killAt
// horizons have been analysed, simulating a mid-session kill right after a
// horizon commits. It returns whether the run was actually interrupted
// (fast-separating adversaries finish before the cancellation bites).
func interruptedRun(t *testing.T, adv ma.Adversary, dir string, opts check.Options, killAt int) bool {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Dir: dir, HotBytes: 4 << 10, OnHorizon: func(r check.HorizonReport) {
		if r.Horizon >= killAt {
			cancel()
		}
	}}
	_, info, err := RunCheck(ctx, adv, cfg, opts, 1)
	if err == nil {
		return false
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: interrupted run: %v", adv.Name(), err)
	}
	if info.Written == 0 {
		t.Fatalf("%s: interrupted run wrote no checkpoint", adv.Name())
	}
	if !Exists(dir) {
		t.Fatalf("%s: no manifest after interruption", adv.Name())
	}
	return true
}

// TestKillAndResumeEquivalence is the end-to-end resume contract at the
// checkpoint layer: kill a session after two horizons, resume it via
// RunCheck in the same directory, and require the verdict to be identical
// to an uninterrupted run's — with the resumed session starting exactly one
// horizon past the checkpoint (zero re-extension) and cleaning up its
// checkpoint directory on success.
func TestKillAndResumeEquivalence(t *testing.T) {
	opts := check.Options{MaxHorizon: 4}
	for _, adv := range seedAdversaries() {
		want, err := check.Consensus(adv, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "ckpt")
		interrupted := interruptedRun(t, adv, dir, opts, 2)

		firstResumed := -1
		cfg := Config{Dir: dir, HotBytes: 4 << 10, OnHorizon: func(r check.HorizonReport) {
			if firstResumed < 0 {
				firstResumed = r.Horizon
			}
		}}
		got, info, err := RunCheck(context.Background(), adv, cfg, opts, 1)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", adv.Name(), err)
		}
		if interrupted {
			if !info.Resumed || info.ResumedAt < 2 {
				t.Errorf("%s: run did not resume from the checkpoint (resumed=%v at %d)",
					adv.Name(), info.Resumed, info.ResumedAt)
			}
			if firstResumed >= 0 && firstResumed != info.ResumedAt+1 {
				t.Errorf("%s: resumed session re-extended: first analysed horizon %d after resuming at %d",
					adv.Name(), firstResumed, info.ResumedAt)
			}
		}
		if got.Verdict != want.Verdict || got.SeparationHorizon != want.SeparationHorizon ||
			got.BroadcastHorizon != want.BroadcastHorizon || got.Broadcaster != want.Broadcaster ||
			got.Exact != want.Exact {
			t.Errorf("%s: resumed %v sep=%d bcast=%d p*=%d vs uninterrupted %v sep=%d bcast=%d p*=%d",
				adv.Name(), got.Verdict, got.SeparationHorizon, got.BroadcastHorizon, got.Broadcaster,
				want.Verdict, want.SeparationHorizon, want.BroadcastHorizon, want.Broadcaster)
		}
		if (want.Map == nil) != (got.Map == nil) ||
			(want.Map != nil && (want.Map.Size() != got.Map.Size() || want.Map.Reference() != got.Map.Reference())) {
			t.Errorf("%s: decision maps differ after resume", adv.Name())
		}
		if !info.Removed || Exists(dir) {
			t.Errorf("%s: checkpoint not cleaned up after the verdict", adv.Name())
		}
	}
}

// TestResumeSurvivesRepeatedKills chains several kill/resume cycles on one
// directory — each resume continues strictly deeper and the final verdict
// still matches the uninterrupted run.
func TestResumeSurvivesRepeatedKills(t *testing.T) {
	adv := ma.LossyLink3()
	opts := check.Options{MaxHorizon: 5}
	want, err := check.Consensus(adv, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	deepest := 0
	for killAt := 1; killAt <= 3; killAt++ {
		if !interruptedRun(t, adv, dir, opts, killAt) {
			t.Fatalf("kill at horizon %d did not interrupt", killAt)
		}
		a, err := Load(dir, adv, 0)
		if err != nil {
			t.Fatalf("Load after kill %d: %v", killAt, err)
		}
		if a.Horizon() <= deepest-1 {
			t.Fatalf("kill %d: checkpoint regressed to horizon %d (was %d)", killAt, a.Horizon(), deepest)
		}
		deepest = a.Horizon()
	}
	got, info, err := RunCheck(context.Background(), adv, Config{Dir: dir}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || got.Verdict != want.Verdict {
		t.Fatalf("final run: resumed=%v verdict=%v, want resumed with %v", info.Resumed, got.Verdict, want.Verdict)
	}
}

// corruptibleCheckpoint lays down a checkpoint for LossyLink3 killed after
// horizon 2 and returns its directory.
func corruptibleCheckpoint(t *testing.T) (string, check.Options) {
	t.Helper()
	opts := check.Options{MaxHorizon: 4}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if !interruptedRun(t, ma.LossyLink3(), dir, opts, 2) {
		t.Fatal("setup run was not interrupted")
	}
	return dir, opts
}

// TestCorruptCheckpointQuarantinedAndRecomputed pins the never-a-wrong-
// resume contract for every artifact: truncating or bit-flipping the
// manifest, the interner blob or a page file makes Load fail with
// ErrNoCheckpoint (artifacts quarantined, bytes preserved), and RunCheck
// falls back to a clean fresh recompute that still reaches the right
// verdict.
func TestCorruptCheckpointQuarantinedAndRecomputed(t *testing.T) {
	mutate := func(t *testing.T, path string, truncate bool) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			data = data[:len(data)/2]
		} else {
			data[len(data)/2] ^= 0x40
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pageFile := func(t *testing.T, dir string) string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(PagesDir(dir), "*.page"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no page files in %s (%v)", PagesDir(dir), err)
		}
		return matches[0]
	}
	cases := map[string]func(t *testing.T, dir string){
		"manifest-truncated": func(t *testing.T, dir string) { mutate(t, manifestPath(dir), true) },
		"manifest-bitflip":   func(t *testing.T, dir string) { mutate(t, manifestPath(dir), false) },
		"interner-truncated": func(t *testing.T, dir string) { mutate(t, internerPath(dir), true) },
		"interner-bitflip":   func(t *testing.T, dir string) { mutate(t, internerPath(dir), false) },
		"page-truncated":     func(t *testing.T, dir string) { mutate(t, pageFile(t, dir), true) },
		"page-bitflip":       func(t *testing.T, dir string) { mutate(t, pageFile(t, dir), false) },
		"interner-missing":   func(t *testing.T, dir string) { os.Remove(internerPath(dir)) },
		// A version-1 checkpoint is intact but predates the symmetry
		// quotient: its pages hold the full frontier, which the quotiented
		// checker must not resume into. Rewrite the manifest as a
		// well-formed v1 (valid CRC) and require quarantine + recompute.
		"stale-version": func(t *testing.T, dir string) { resealManifest(t, dir, 1) },
		// A version-2 checkpoint of a quotiented session (LossyLink3 is
		// quotiented by its swap) carries view IDs of the relabel-memo
		// scheme; it must never be resumed against orbit-canonical IDs.
		"version-2-quotiented": func(t *testing.T, dir string) {
			if ma.Automorphisms(ma.LossyLink3()).Trivial() {
				t.Fatal("setup session is not quotiented")
			}
			resealManifest(t, dir, 2)
		},
		// A version-3 checkpoint holds a decomposition over pseudo-items
		// (|G| component ids per item); it must never be resumed as an
		// orbit decomposition.
		"version-3": func(t *testing.T, dir string) {
			if ma.Automorphisms(ma.LossyLink3()).Trivial() {
				t.Fatal("setup session is not quotiented")
			}
			resealManifest(t, dir, 3)
		},
		// A version-4 checkpoint's meta carries the retired "parallelism"
		// field; it must be recomputed, not resumed.
		"version-4": func(t *testing.T, dir string) { resealManifest(t, dir, 4) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir, opts := corruptibleCheckpoint(t)
			corrupt(t, dir)
			if _, err := Load(dir, ma.LossyLink3(), 0); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Load on corrupt checkpoint: %v, want ErrNoCheckpoint", err)
			}
			if entries, err := os.ReadDir(filepath.Join(dir, quarantineName)); err != nil || len(entries) == 0 {
				t.Errorf("nothing quarantined (%v)", err)
			}
			res, info, err := RunCheck(context.Background(), ma.LossyLink3(), Config{Dir: dir}, opts, 1)
			if err != nil {
				t.Fatalf("fresh recompute: %v", err)
			}
			if info.Resumed {
				t.Error("RunCheck claims to have resumed a corrupt checkpoint")
			}
			if res.Verdict != check.VerdictImpossible {
				t.Errorf("recomputed verdict %v, want impossible", res.Verdict)
			}
		})
	}
}

// resealManifest rewrites the checkpoint's manifest under another format
// version with a valid checksum, as an older writer would have left it.
func resealManifest(t *testing.T, dir string, version int) {
	t.Helper()
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lines[0] = fmt.Sprintf("topocon-ckpt %d", version)
	body := strings.Join(lines[:4], "\n") + "\n"
	manifest := body + fmt.Sprintf("crc32 %08x\n", crc32.ChecksumIEEE([]byte(body)))
	if err := os.WriteFile(manifestPath(dir), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMismatchesAreHardErrors pins that an intact checkpoint for a
// different adversary or different options refuses to resume loudly — no
// silent recompute that would mask the misconfiguration.
func TestMismatchesAreHardErrors(t *testing.T) {
	dir, opts := corruptibleCheckpoint(t)
	if _, err := Load(dir, ma.LossyLink2(), 0); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("Load with wrong adversary: %v, want ErrFingerprintMismatch", err)
	}
	if _, _, err := RunCheck(context.Background(), ma.LossyLink2(), Config{Dir: dir}, opts, 1); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("RunCheck with wrong adversary: %v, want ErrFingerprintMismatch", err)
	}
	changed := opts
	changed.MaxRuns = 123456
	if _, _, err := RunCheck(context.Background(), ma.LossyLink3(), Config{Dir: dir}, changed, 1); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("RunCheck with changed options: %v, want ErrConfigMismatch", err)
	}
	// The checkpoint survives all three refusals intact.
	if a, err := Load(dir, ma.LossyLink3(), 0); err != nil || a.Horizon() < 2 {
		t.Errorf("checkpoint damaged by mismatch refusals: %v", err)
	}
}

// TestFreshArchivesStaleState pins that a fresh session never sees a stale
// session's pages: Fresh moves them into quarantine (preserved, not
// deleted) because page ids are deterministic round numbers.
func TestFreshArchivesStaleState(t *testing.T) {
	dir, _ := corruptibleCheckpoint(t)
	stalePages, err := filepath.Glob(filepath.Join(PagesDir(dir), "*.page"))
	if err != nil || len(stalePages) == 0 {
		t.Fatal("setup left no pages")
	}
	if _, err := Fresh(dir, 0); err != nil {
		t.Fatalf("Fresh over stale checkpoint: %v", err)
	}
	if Exists(dir) {
		t.Error("manifest survived Fresh")
	}
	if left, _ := filepath.Glob(filepath.Join(PagesDir(dir), "*.page")); len(left) != 0 {
		t.Errorf("%d stale pages still visible after Fresh", len(left))
	}
	var archived int
	filepath.Walk(filepath.Join(dir, quarantineName), func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() && strings.HasSuffix(path, ".page") {
			archived++
		}
		return nil
	})
	if archived != len(stalePages) {
		t.Errorf("archived %d pages, want %d", archived, len(stalePages))
	}
}

// TestRunCheckEveryBatchesCheckpoints pins the Every knob: with Every = 3
// over 4 analysed horizons, only one periodic checkpoint is written
// mid-run, and a cancellation right after an unsaved horizon still makes it
// durable via the final best-effort save.
func TestRunCheckEveryBatchesCheckpoints(t *testing.T) {
	adv := ma.LossyLink3()
	opts := check.Options{MaxHorizon: 6}
	dir := filepath.Join(t.TempDir(), "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, info, err := RunCheck(ctx, adv, Config{Dir: dir, Every: 3, OnHorizon: func(r check.HorizonReport) {
		if r.Horizon == 4 {
			cancel()
		}
	}}, opts, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v, want context.Canceled", err)
	}
	// Horizon 3 was the periodic checkpoint; horizon 4 the interruption save.
	if info.Written != 2 {
		t.Errorf("wrote %d checkpoints, want 2", info.Written)
	}
	a, err := Load(dir, adv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Horizon() != 4 {
		t.Errorf("checkpoint at horizon %d, want 4 (interruption made durable)", a.Horizon())
	}
}

// TestResumeQuarantinesStalePages: a crash between checkpoints leaves the
// page files of the rounds the crashed run spilled past the checkpoint's
// horizon. Page files are named by round number and the pager keeps a file
// that already exists, so unless Load moves those pages aside, the resumed
// session's own round is served from the crashed run's bytes — ViewIDs the
// resumed interner assigned differently. Load must quarantine (preserve,
// not delete) every page its snapshot does not reference.
func TestResumeQuarantinesStalePages(t *testing.T) {
	adv := ma.LossyLink3()
	const budget = 1 << 10
	opts := check.WithOptions(check.Options{MaxHorizon: 6, NoSymmetry: true})
	ctx := context.Background()
	step := func(a *check.Analyzer, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := a.Step(ctx); err != nil {
				t.Fatalf("step to horizon %d: %v", a.Horizon()+1, err)
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	pg, err := Fresh(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := check.NewAnalyzer(adv, opts, check.WithPager(pg))
	if err != nil {
		t.Fatal(err)
	}
	step(crashed, 3)
	if err := Save(dir, crashed); err != nil {
		t.Fatal(err)
	}
	// One extra view interned before horizon 4 makes the crashed run's IDs
	// past the checkpoint differ from the resumed run's.
	crashed.SpaceAt(3).Interner.Leaf(0, 7)
	step(crashed, 2) // spills round 4; the crash loses horizons 4 and 5
	stale := filepath.Join(PagesDir(dir), "round-004.page")
	staleBytes, err := os.ReadFile(stale)
	if err != nil {
		t.Fatalf("the crashed run left no round-4 page: %v", err)
	}

	resumed, err := Load(dir, adv, budget)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("round-4 page of the crashed run still in place after Load (stat: %v)", err)
	}
	var preserved bool
	filepath.Walk(filepath.Join(PagesDir(dir), quarantineName), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && info.Name() == "round-004.page" {
			got, rerr := os.ReadFile(path)
			preserved = rerr == nil && string(got) == string(staleBytes)
		}
		return nil
	})
	if !preserved {
		t.Fatal("the stale round-4 page was not preserved in quarantine")
	}
	step(resumed, 1)
	head := resumed.SpaceAt(4)
	want := make([]ptg.ViewID, 0, head.Len()*head.N())
	for i := 0; i < head.Len(); i++ {
		for p := 0; p < head.N(); p++ {
			want = append(want, head.ViewAt(i, p))
		}
	}
	step(resumed, 1) // spills round 4 through the pager
	// Rehydrating horizon 4 faults rounds 1–3 under the 1 KiB budget, which
	// evicts round 4, so its views come back from its page file.
	cold := resumed.SpaceAt(4)
	if cold == nil || cold == head {
		t.Fatal("horizon 4 was not rehydrated from its pages")
	}
	differ := 0
	for i := 0; i < cold.Len(); i++ {
		for p := 0; p < cold.N(); p++ {
			if cold.ViewAt(i, p) != want[i*cold.N()+p] {
				differ++
			}
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d round-4 views read back from disk differ from the session's own", differ, len(want))
	}
	if st := resumed.Pager().Stats(); st.PagesFaulted == 0 {
		t.Fatalf("round 4 never faulted: %+v", st)
	}
}
