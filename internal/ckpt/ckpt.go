// Package ckpt persists and resumes whole check.Analyzer sessions. A
// checkpoint directory holds three things:
//
//	pages/         the session pager's spilled frontier pages (package pager,
//	               each page individually checksummed)
//	interner.bin   the exported view-interner arena (package ptg)
//	ckpt.manifest  the versioned, checksummed manifest tying them together
//
// Manifest format (version 9), in the checksummed text framing of
// fsx.Format that internal/store's records and leases share:
//
//	topocon-ckpt 9
//	fingerprint <ma.Fingerprint of the adversary at the resolved MaxHorizon>
//	interner <byte length> <crc32, 8 lowercase hex digits, IEEE>
//	meta <compact JSON of check.SessionSnapshot>
//	crc32 <8 lowercase hex digits, IEEE, over the four lines above>
//
// for example, LossyLink3 saved at horizon 2 of 4 (fingerprint, options
// and digest abridged):
//
//	topocon-ckpt 9
//	fingerprint 757f97d42ea2a449…
//	interner 169 07063510
//	meta {"options":{…},"horizon":2,"rounds":[{"horizon":1,"count":7,"pageID":"round-001","bytes":17},{"horizon":2,"count":19,"pageID":"round-002","bytes":41}],"rowDigest":"21aa27eea18e2107…","separationHorizon":-1,"broadcastHorizon":-1}
//	crc32 68dff037
//
// Version 9 checkpoints are written under the session's full symmetry
// group, G × Sym(V): process automorphisms paired with input-value
// permutations, whose value part the interner blob's group header
// records. Their pages hold a round's header and view IDs only; a resume
// rebuilds the run links by replay and checks the rows it compiled
// against the chain's row digest ("rowDigest" in the meta). Older
// checkpoints — version 1 (full, unquotiented frontiers), version 2
// (quotiented sessions under the relabel-memo ID scheme), version 3
// (decompositions over pseudo-items), version 4 (meta with a
// "parallelism" field), version 5 (meta with "decomp" and "sepDecomp"
// fields), version 6 (meta with a "retain" field), version 7 (pages with
// heard masks, a graph dictionary and run links) and version 8 (sessions
// quotiented by the process group alone, whose interner blob has no value
// part) — are quarantined and recomputed rather than resumed (see
// manifestVersion).
//
// Save writes pages first (via Analyzer.Snapshot), then the interner blob,
// then the manifest — each through a `.tmp` sibling renamed into place — so
// a crash at any point leaves either the previous checkpoint or the new
// one, never a torn mix: the manifest is the commit point.
//
// Load validates strictly and never resumes wrong: a missing manifest is
// ErrNoCheckpoint; a corrupt manifest, interner blob or page set is moved
// into a fresh quarantine/ckpt.<random>/ subdirectory (fsx.Quarantine:
// bytes preserved, never deleted) and
// reported as an error wrapping ErrNoCheckpoint so callers fall back to a
// clean recompute; an adversary-fingerprint or options mismatch is a hard
// error (ErrFingerprintMismatch / ErrConfigMismatch) — the checkpoint is
// intact but belongs to a different analysis, and silently recomputing
// would mask the misconfiguration. Page files the snapshot does not
// reference — rounds a crashed run spilled past its last checkpoint — are
// quarantined before the resumed session can read them.
package ckpt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"topocon/internal/check"
	"topocon/internal/fsx"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

const (
	// manifestVersion 9 marks checkpoints written under the group
	// G × Sym(V). A v8 checkpoint of a quotiented session holds the
	// representatives and view IDs of the process group alone, and its
	// interner blob's group header has no value-domain field, so it would
	// not import; a v8 checkpoint without symmetry would resume correctly
	// but is recomputed with the rest. v8 marked pages holding view IDs
	// only and a session meta carrying the row digest; a v7 page holds four
	// more columns and would fail page decoding, and a v7 meta lacks the
	// digest. Decoding rejects unknown fields, so a v6 meta (with
	// "retain"), a v5 meta (with "decomp") or a v4 meta (with
	// "parallelism") would not decode anyway. A v3 snapshot of a
	// quotiented session holds a pseudo-item partition (|G| labels per
	// item), v2 view IDs of the relabel-memo scheme, and v1 pages the
	// full, unquotiented frontier; resuming any of them would be wrong.
	// Older manifests therefore fail decoding, quarantine, and recompute.
	manifestVersion = 9
	manifestName    = "ckpt.manifest"
	internerName    = "interner.bin"
	pagesDirName    = "pages"
)

// ErrNoCheckpoint reports that the directory holds no usable checkpoint —
// either none was ever written, or what was there failed validation and has
// been quarantined. Callers start a fresh session.
var ErrNoCheckpoint = errors.New("ckpt: no usable checkpoint")

// ErrFingerprintMismatch reports an intact checkpoint written for a
// behaviourally different adversary.
var ErrFingerprintMismatch = errors.New("ckpt: adversary fingerprint mismatch")

// ErrConfigMismatch reports an intact checkpoint written under different
// analysis options than the caller's.
var ErrConfigMismatch = errors.New("ckpt: analysis options mismatch")

// PagesDir returns the pager directory inside a checkpoint directory; a
// session that wants to be checkpointable under dir must run its pager
// there.
func PagesDir(dir string) string { return filepath.Join(dir, pagesDirName) }

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }
func internerPath(dir string) string { return filepath.Join(dir, internerName) }

// Fresh prepares dir for a brand-new checkpointable session and returns its
// pager. Any previous checkpoint state — manifest, interner blob, page
// files — is moved into quarantine/ first: page ids are deterministic
// (round numbers), so stale pages from an abandoned session must never be
// visible to a new one.
func Fresh(dir string, hotBytes int64) (*pager.Pager, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if err := quarantineState(dir); err != nil {
		return nil, err
	}
	pg, err := pager.New(pager.Config{Dir: PagesDir(dir), HotBytes: hotBytes})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return pg, nil
}

// quarantineState moves the checkpoint artifacts present in dir —
// manifest, interner blob, pages — into a fresh `quarantine/ckpt.<random>/`
// subdirectory (fsx.Quarantine), preserving the bytes for inspection.
func quarantineState(dir string) error {
	if err := fsx.Quarantine(dir, "ckpt", manifestName, internerName, pagesDirName); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// quarantineCorrupt retires dir's checkpoint state after a validation
// failure and returns the error for it, wrapping ErrNoCheckpoint so the
// caller starts fresh.
func quarantineCorrupt(dir string, detail error) error {
	if qerr := quarantineState(dir); qerr != nil {
		return fmt.Errorf("ckpt: %s: %v (and quarantining failed: %v): %w", dir, detail, qerr, ErrNoCheckpoint)
	}
	return fmt.Errorf("ckpt: %s: %v (checkpoint quarantined): %w", dir, detail, ErrNoCheckpoint)
}

// Save checkpoints the session into dir. The analyzer must run its pager
// under PagesDir(dir) (Fresh or Load set this up). Page files are persisted
// by the snapshot itself; Save then writes the interner blob and finally
// the manifest, each atomically. Saving is only meaningful mid-run:
// Analyzer.Snapshot rejects unstarted and finished sessions.
func Save(dir string, a *check.Analyzer) error {
	pg := a.Pager()
	if pg == nil {
		return errors.New("ckpt: analyzer has no pager")
	}
	if pg.Dir() != PagesDir(dir) {
		return fmt.Errorf("ckpt: analyzer's pager runs under %s, not %s", pg.Dir(), PagesDir(dir))
	}
	snap, err := a.Snapshot()
	if err != nil {
		return err
	}
	meta, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	space := a.SpaceAt(a.Horizon())
	if space == nil {
		return errors.New("ckpt: deepest space unavailable")
	}
	blob, err := space.Interner.Export()
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := fsx.AtomicWrite(internerPath(dir), blob, 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	fp := ma.Fingerprint(a.Adversary(), a.Options().MaxHorizon)
	manifest := encodeManifest(fp, len(blob), fsx.Checksum(blob), meta)
	if err := fsx.AtomicWrite(manifestPath(dir), manifest, 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// Load resumes the session checkpointed in dir for the given adversary,
// with a fresh pager under the given hot-set budget. Extra options are for
// the new process's observers (WithProgress); the analysis
// configuration always comes from the checkpoint. See the package comment
// for the validation and error contract.
func Load(dir string, adv ma.Adversary, hotBytes int64, extra ...check.AnalyzerOption) (*check.Analyzer, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	fp, blobLen, blobCRC, snap, err := decodeManifest(data)
	if err != nil {
		return nil, quarantineCorrupt(dir, err)
	}
	blob, err := os.ReadFile(internerPath(dir))
	if err != nil {
		return nil, quarantineCorrupt(dir, fmt.Errorf("reading interner blob: %v", err))
	}
	if sum := fsx.Checksum(blob); len(blob) != blobLen || sum != blobCRC {
		return nil, quarantineCorrupt(dir, fmt.Errorf("interner blob does not match manifest (%d bytes, crc %08x; manifest says %d, %08x)",
			len(blob), sum, blobLen, blobCRC))
	}
	if want := ma.Fingerprint(adv, snap.Options.MaxHorizon); fp != want {
		return nil, fmt.Errorf("%w: checkpoint %s vs adversary %q %s",
			ErrFingerprintMismatch, shortHex(fp), adv.Name(), shortHex(want))
	}
	interner, err := ptg.ImportInterner(blob)
	if err != nil {
		return nil, quarantineCorrupt(dir, err)
	}
	pg, err := pager.New(pager.Config{Dir: PagesDir(dir), HotBytes: hotBytes})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	// A crash between checkpoints leaves pages of rounds past the
	// snapshot's horizon; they must not outlive it into the resumed run.
	keep := make([]string, len(snap.Rounds))
	for i, cr := range snap.Rounds {
		keep[i] = cr.PageID
	}
	if _, err := pg.QuarantineUnlisted(keep); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	a, err := check.RestoreAnalyzer(adv, snap, interner, pg, extra...)
	if err != nil {
		// Structural failure or a corrupt/missing page: the checkpoint
		// cannot be trusted, so it is retired and the caller recomputes.
		return nil, quarantineCorrupt(dir, err)
	}
	return a, nil
}

// Remove deletes the whole checkpoint directory. Call it once the session
// has reached its verdict and the verdict is persisted elsewhere.
//
//topocon:allow quarantine -- documented retire path: the caller asserts the verdict is already persisted, so the checkpoint holds no unique data
func Remove(dir string) error { return os.RemoveAll(dir) }

// Config drives RunCheck.
type Config struct {
	// Dir is the checkpoint directory.
	Dir string
	// HotBytes is the pager's hot-set budget (≤ 0: unlimited).
	HotBytes int64
	// Every is ignored: RunCheck checkpoints after every analysed horizon.
	//
	// Deprecated: the field stays only because the benchmark module in
	// topobench/ still sets it.
	Every int
	// OnHorizon, if set, observes every analysed horizon (resumed sessions
	// only report horizons they actually analyse — checkpointed ones are
	// never re-extended).
	OnHorizon func(check.HorizonReport)
}

// Info reports what RunCheck did besides the verdict.
type Info struct {
	Resumed   bool  `json:"resumed"`
	ResumedAt int   `json:"resumedAt"` // horizon the resumed session continued from; -1 if fresh
	Written   int   `json:"checkpointsWritten"`
	Removed   bool  `json:"removed"`
	Runs      int   `json:"runs"` // deepest horizon's full prefix-space size, as HorizonReport.Runs counts it (successful runs)
	SaveErr   error `json:"-"`    // first mid-run checkpoint failure, if any (non-fatal)

	// PagerStats is the session pager's final traffic.
	PagerStats pager.Stats `json:"pagerStats"`
}

// RunCheck runs one adversary to a verdict with a checkpoint after every
// horizon: resume from cfg.Dir when a valid checkpoint for this adversary
// and these options exists, start fresh otherwise, checkpoint from the
// progress hook after each analysed horizon, and remove the checkpoint
// directory once the verdict is in. A killed run loses at most the horizon
// in flight and the save in progress; on a context cancellation a failed
// save of the last completed horizon is retried before returning.
func RunCheck(ctx context.Context, adv ma.Adversary, cfg Config, opts check.Options,
	_ int, // Deprecated: once the session's worker count, now ignored; it stays only because the benchmark module in topobench/ still passes it.
) (*check.Result, *Info, error) {
	info := &Info{ResumedAt: -1}
	var a *check.Analyzer
	// save checkpoints the session and reports whether it succeeded.
	save := func() bool {
		if err := Save(cfg.Dir, a); err != nil {
			if info.SaveErr == nil {
				info.SaveErr = err
			}
			return false
		}
		info.Written++
		return true
	}
	unsaved := false // the last analysed horizon's save failed
	progress := check.WithProgress(func(r check.HorizonReport) {
		if cfg.OnHorizon != nil {
			cfg.OnHorizon(r)
		}
		unsaved = !save()
	})

	a, err := Load(cfg.Dir, adv, cfg.HotBytes, progress)
	switch {
	case err == nil:
		info.Resumed = true
		info.ResumedAt = a.Horizon()
	case errors.Is(err, ErrNoCheckpoint):
		pg, ferr := Fresh(cfg.Dir, cfg.HotBytes)
		if ferr != nil {
			return nil, info, ferr
		}
		a, ferr = check.NewAnalyzer(adv,
			check.WithOptions(opts), check.WithPager(pg), progress)
		if ferr != nil {
			return nil, info, ferr
		}
	default:
		return nil, info, err
	}
	resolved, err := opts.Resolved()
	if err != nil {
		return nil, info, err
	}
	if a.Options() != resolved {
		return nil, info, fmt.Errorf("%w: checkpoint %+v vs requested %+v", ErrConfigMismatch, a.Options(), resolved)
	}

	res, err := a.Check(ctx)
	info.PagerStats = a.Pager().Stats()
	if err != nil {
		if unsaved {
			save()
		}
		return nil, info, err
	}
	if s := a.SpaceAt(a.Horizon()); s != nil {
		info.Runs = s.FullLen()
	}
	if rerr := Remove(cfg.Dir); rerr == nil {
		info.Removed = true
	}
	return res, info, nil
}

// manifestFormat is the framing of a checkpoint manifest (see the package
// comment); fsx owns the header, line and checksum checks.
var manifestFormat = fsx.Format{
	Magic:   "topocon-ckpt",
	Version: manifestVersion,
	Tags:    []string{"fingerprint", "interner", "meta"},
}

// encodeManifest renders the versioned, checksummed manifest bytes.
func encodeManifest(fp string, blobLen int, blobCRC uint32, meta []byte) []byte {
	return manifestFormat.Encode(fp, fmt.Sprintf("%d %08x", blobLen, blobCRC), string(meta))
}

// decodeManifest parses and fully validates manifest bytes: framing,
// version and checksum (fsx.Format), then each value, which must be in
// the one spelling encodeManifest writes.
func decodeManifest(data []byte) (fp string, blobLen int, blobCRC uint32, snap *check.SessionSnapshot, err error) {
	values, err := manifestFormat.Decode(data)
	if err != nil {
		return "", 0, 0, nil, err
	}
	fp, interner, meta := values[0], values[1], values[2]
	if fp == "" || strings.ContainsAny(fp, " \t") {
		return "", 0, 0, nil, fmt.Errorf("bad fingerprint %q", fp)
	}
	if n, serr := fmt.Sscanf(interner, "%d %08x", &blobLen, &blobCRC); serr != nil || n != 2 || blobLen < 0 ||
		interner != fmt.Sprintf("%d %08x", blobLen, blobCRC) {
		return "", 0, 0, nil, fmt.Errorf("bad interner line %q", interner)
	}
	dec := json.NewDecoder(strings.NewReader(meta))
	dec.DisallowUnknownFields()
	snap = new(check.SessionSnapshot)
	if derr := dec.Decode(snap); derr != nil {
		return "", 0, 0, nil, fmt.Errorf("decoding session meta: %v", derr)
	}
	// Save writes the meta with json.Marshal; anything else was not
	// written by Save, so the manifest re-encodes byte for byte.
	if canon, merr := json.Marshal(snap); merr != nil || string(canon) != meta {
		return "", 0, 0, nil, errors.New("session meta is not in canonical form")
	}
	return fp, blobLen, blobCRC, snap, nil
}

func shortHex(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}
