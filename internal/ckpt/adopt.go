package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Adopt moves a dead worker's cell checkpoint at srcDir into the
// successor's namespace at dstDir, validate-then-rename: the source
// manifest and interner blob are fully checked first (readCheckpoint, the
// check Load makes), any stale state in
// the destination is quarantined, and only then is the whole directory
// renamed into place — same-filesystem, so the move is atomic and the
// pager's relative page paths keep working unchanged. A subsequent Load
// on dstDir revalidates fingerprint and options as usual, so the
// successor resumes from the dead worker's deepest analysed horizon with
// zero re-extension.
//
// A missing source checkpoint is ErrNoCheckpoint (the dead worker never
// got far enough to save — the successor starts fresh, which is correct,
// not an error). A corrupt source is quarantined in place and reported
// wrapping ErrNoCheckpoint. Adopt never deletes anything.
//
// The returned horizon is the checkpoint's deepest analysed horizon, for
// provenance logging.
func Adopt(srcDir, dstDir string) (int, error) {
	if srcDir == "" || dstDir == "" {
		return 0, errors.New("ckpt: adopt needs both source and destination directories")
	}
	if srcDir == dstDir {
		return 0, fmt.Errorf("ckpt: adopt source and destination are the same directory %s", srcDir)
	}
	_, snap, _, err := readCheckpoint(srcDir)
	if err != nil {
		return 0, err
	}

	// The destination may hold the successor's own abandoned state from an
	// earlier attempt; move it aside so the rename target is clear.
	if err := quarantineState(dstDir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(dstDir), 0o755); err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	// If dstDir itself exists (only quarantine/ and empty remnants can be
	// left after the sweep above), move the artifacts individually into it
	// instead of renaming over a non-empty directory.
	if _, err := os.Stat(dstDir); err == nil {
		// Manifest moves last: it is the commit point, so a crash mid-move
		// leaves a manifest-less destination that Load treats as no
		// checkpoint — a fresh start, never a torn resume.
		for _, name := range []string{pagesDirName, internerName, manifestName} {
			src := filepath.Join(srcDir, name)
			if _, serr := os.Stat(src); serr != nil {
				continue
			}
			if rerr := os.Rename(src, filepath.Join(dstDir, name)); rerr != nil {
				return 0, fmt.Errorf("ckpt: adopting %s: %w", name, rerr)
			}
		}
		return snap.Horizon, nil
	}
	if err := os.Rename(srcDir, dstDir); err != nil {
		return 0, fmt.Errorf("ckpt: adopting %s: %w", srcDir, err)
	}
	return snap.Horizon, nil
}
