// Package ckpt persists and resumes whole check.Analyzer sessions. A
// checkpoint directory holds three things:
//
//	pages/         the session pager's spilled frontier pages (package pager,
//	               each page individually checksummed)
//	interner.bin   the exported view-interner arena (package ptg)
//	ckpt.manifest  the versioned, checksummed manifest tying them together
//
// Manifest format (version 5, line-framed like internal/store records):
//
//	topocon-ckpt 5
//	fingerprint <ma.Fingerprint of the adversary at the resolved MaxHorizon>
//	interner <byte length> <crc32, 8 lowercase hex digits, IEEE>
//	meta <compact JSON of check.SessionSnapshot>
//	crc32 <8 lowercase hex digits, IEEE, over the four lines above>
//
// Version 5 drops the session meta's worker count; its decompositions are
// component orbits (per-item labels and per-component stabilizers), as in
// version 4. Older checkpoints — version 1 (full, unquotiented frontiers),
// version 2 (quotiented sessions under the relabel-memo ID scheme),
// version 3 (decompositions over pseudo-items) and version 4 (meta with a
// "parallelism" field) — are quarantined and recomputed rather than
// resumed (see manifestVersion).
//
// Save writes pages first (via Analyzer.Snapshot), then the interner blob,
// then the manifest — each through a `.tmp` sibling renamed into place — so
// a crash at any point leaves either the previous checkpoint or the new
// one, never a torn mix: the manifest is the commit point.
//
// Load validates strictly and never resumes wrong: a missing manifest is
// ErrNoCheckpoint; a corrupt manifest, interner blob or page set is moved to
// the quarantine/ subdirectory (bytes preserved, never deleted) and
// reported as an error wrapping ErrNoCheckpoint so callers fall back to a
// clean recompute; an adversary-fingerprint or options mismatch is a hard
// error (ErrFingerprintMismatch / ErrConfigMismatch) — the checkpoint is
// intact but belongs to a different analysis, and silently recomputing
// would mask the misconfiguration. Page files the snapshot does not
// reference — rounds a crashed run spilled past its last checkpoint — are
// quarantined before the resumed session can read them.
package ckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"topocon/internal/check"
	"topocon/internal/fsx"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

const (
	// manifestVersion 5 marks checkpoints whose session meta has no
	// "parallelism" field; decoding rejects unknown fields, so a v4 meta
	// would not decode anyway. v4 and v5 snapshots hold orbit
	// decompositions (DESIGN.md §13): one component per component orbit,
	// with per-item labels and per-component stabilizers. A v3 snapshot of
	// a quotiented session holds a pseudo-item partition (|G| labels per
	// item), v2 view IDs of the relabel-memo scheme, and v1 pages the
	// full, unquotiented frontier; resuming any of them would be wrong.
	// Older manifests therefore fail decoding, quarantine, and recompute.
	manifestVersion = 5
	manifestName    = "ckpt.manifest"
	internerName    = "interner.bin"
	pagesDirName    = "pages"
	quarantineName  = "quarantine"
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
	if stale := staleState(dir); len(stale) > 0 {
		if err := quarantineState(dir, stale); err != nil {
			return nil, err
		}
	}
	pg, err := pager.New(pager.Config{Dir: PagesDir(dir), HotBytes: hotBytes})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return pg, nil
}

// staleState lists the checkpoint artifacts present in dir.
func staleState(dir string) []string {
	var out []string
	for _, name := range []string{manifestName, internerName, pagesDirName} {
		p := filepath.Join(dir, name)
		st, err := os.Stat(p)
		if err != nil {
			continue
		}
		if st.IsDir() {
			if entries, err := os.ReadDir(p); err != nil || len(entries) == 0 {
				continue
			}
		}
		out = append(out, name)
	}
	return out
}

// quarantineState moves the named artifacts into a fresh stamped
// subdirectory of quarantine/, preserving the bytes for inspection.
func quarantineState(dir string, names []string) error {
	qdir := filepath.Join(dir, quarantineName, fmt.Sprintf("ckpt.%d", time.Now().UnixNano()))
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("ckpt: quarantine: %w", err)
	}
	for _, name := range names {
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err != nil {
			return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
		}
	}
	return nil
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
	if err := writeAtomic(internerPath(dir), blob); err != nil {
		return err
	}
	fp := ma.Fingerprint(a.Adversary(), a.Options().MaxHorizon)
	manifest := encodeManifest(fp, len(blob), crc32.ChecksumIEEE(blob), meta)
	return writeAtomic(manifestPath(dir), manifest)
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
	corrupt := func(detail error) error {
		if qerr := quarantineState(dir, staleState(dir)); qerr != nil {
			return fmt.Errorf("ckpt: %v (and quarantining failed: %v): %w", detail, qerr, ErrNoCheckpoint)
		}
		return fmt.Errorf("ckpt: %v (checkpoint quarantined): %w", detail, ErrNoCheckpoint)
	}
	fp, blobLen, blobCRC, snap, err := decodeManifest(data)
	if err != nil {
		return nil, corrupt(err)
	}
	if want := ma.Fingerprint(adv, snap.Options.MaxHorizon); fp != want {
		return nil, fmt.Errorf("%w: checkpoint %s vs adversary %q %s",
			ErrFingerprintMismatch, shortHex(fp), adv.Name(), shortHex(want))
	}
	blob, err := os.ReadFile(internerPath(dir))
	if err != nil {
		return nil, corrupt(fmt.Errorf("reading interner blob: %v", err))
	}
	if len(blob) != blobLen || crc32.ChecksumIEEE(blob) != blobCRC {
		return nil, corrupt(fmt.Errorf("interner blob does not match manifest (%d bytes, crc %08x; manifest says %d, %08x)",
			len(blob), crc32.ChecksumIEEE(blob), blobLen, blobCRC))
	}
	interner, err := ptg.ImportInterner(blob)
	if err != nil {
		return nil, corrupt(err)
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
		return nil, corrupt(err)
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
	// Every checkpoints after every Every-th analysed horizon (default 1).
	Every int
	// Keep leaves the checkpoint directory in place after a successful
	// verdict instead of removing it.
	Keep bool
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
	Runs      int   `json:"runs"` // deepest horizon's prefix-space size (successful runs)
	SaveErr   error `json:"-"`    // first mid-run checkpoint failure, if any (non-fatal)

	// PagerStats is the session pager's final traffic.
	PagerStats pager.Stats `json:"pagerStats"`
}

// RunCheck runs one adversary to a verdict with periodic checkpointing:
// resume from cfg.Dir when a valid checkpoint for this adversary and these
// options exists, start fresh otherwise, checkpoint every cfg.Every
// horizons from the progress hook, and — unless cfg.Keep — remove the
// checkpoint directory once the verdict is in. On a context cancellation
// the last completed horizon is checkpointed before returning, so a killed
// run loses at most the horizon in flight.
func RunCheck(ctx context.Context, adv ma.Adversary, cfg Config, opts check.Options,
	_ int, // Deprecated: once the session's worker count, now ignored; it stays only because the benchmark module in topobench/ still passes it.
) (*check.Result, *Info, error) {
	every := cfg.Every
	if every <= 0 {
		every = 1
	}
	info := &Info{ResumedAt: -1}
	var a *check.Analyzer
	sinceCkpt := 0
	progress := check.WithProgress(func(r check.HorizonReport) {
		if cfg.OnHorizon != nil {
			cfg.OnHorizon(r)
		}
		if sinceCkpt++; sinceCkpt >= every {
			if err := Save(cfg.Dir, a); err != nil {
				if info.SaveErr == nil {
					info.SaveErr = err
				}
			} else {
				info.Written++
				sinceCkpt = 0
			}
		}
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
		// Make the interruption durable: the last fully-analysed horizon may
		// postdate the last periodic checkpoint when Every > 1.
		if sinceCkpt > 0 && a.Horizon() > 0 && !a.Finished() {
			if serr := Save(cfg.Dir, a); serr == nil {
				info.Written++
			} else if info.SaveErr == nil {
				info.SaveErr = serr
			}
		}
		return nil, info, err
	}
	if s := a.SpaceAt(a.Horizon()); s != nil {
		info.Runs = s.Len()
	}
	if !cfg.Keep {
		if rerr := Remove(cfg.Dir); rerr == nil {
			info.Removed = true
		}
	}
	return res, info, nil
}

// writeAtomic writes data through fsx.AtomicWrite (temp sibling, sync,
// rename — the shared durable-write idiom) with this package's error prefix.
func writeAtomic(path string, data []byte) error {
	if err := fsx.AtomicWrite(path, data, 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// encodeManifest renders the versioned, checksummed manifest bytes.
func encodeManifest(fp string, blobLen int, blobCRC uint32, meta []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "topocon-ckpt %d\n", manifestVersion)
	fmt.Fprintf(&b, "fingerprint %s\n", fp)
	fmt.Fprintf(&b, "interner %d %08x\n", blobLen, blobCRC)
	fmt.Fprintf(&b, "meta %s\n", meta)
	fmt.Fprintf(&b, "crc32 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// decodeManifest parses and fully validates manifest bytes.
func decodeManifest(data []byte) (fp string, blobLen int, blobCRC uint32, snap *check.SessionSnapshot, err error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) != 6 || lines[5] != "" {
		return "", 0, 0, nil, errors.New("manifest must be exactly 5 newline-terminated lines")
	}
	var version int
	if _, serr := fmt.Sscanf(lines[0], "topocon-ckpt %d", &version); serr != nil ||
		lines[0] != fmt.Sprintf("topocon-ckpt %d", version) {
		return "", 0, 0, nil, fmt.Errorf("bad header %q", lines[0])
	}
	if version != manifestVersion {
		return "", 0, 0, nil, fmt.Errorf("unsupported manifest version %d", version)
	}
	sumLine, ok := strings.CutPrefix(lines[4], "crc32 ")
	if !ok || len(sumLine) != 8 {
		return "", 0, 0, nil, fmt.Errorf("bad checksum line %q", lines[4])
	}
	body := strings.Join(lines[:4], "\n") + "\n"
	if want := fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(body))); sumLine != want {
		return "", 0, 0, nil, fmt.Errorf("checksum mismatch (%s != %s)", sumLine, want)
	}
	fp, ok = strings.CutPrefix(lines[1], "fingerprint ")
	if !ok || fp == "" || strings.ContainsAny(fp, " \t") {
		return "", 0, 0, nil, fmt.Errorf("bad fingerprint line %q", lines[1])
	}
	if n, serr := fmt.Sscanf(lines[2], "interner %d %08x", &blobLen, &blobCRC); serr != nil || n != 2 || blobLen < 0 ||
		lines[2] != fmt.Sprintf("interner %d %08x", blobLen, blobCRC) {
		return "", 0, 0, nil, fmt.Errorf("bad interner line %q", lines[2])
	}
	meta, ok := strings.CutPrefix(lines[3], "meta ")
	if !ok {
		return "", 0, 0, nil, fmt.Errorf("bad meta line %q", lines[3])
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
