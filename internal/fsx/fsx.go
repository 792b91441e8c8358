// Package fsx is the one module that knows how durable files look. The
// durable packages — store, pager, ckpt and svc — write every final file
// through AtomicWrite, frame their text records with Format, and move bad
// bytes aside with Quarantine. A crash can leave at worst a stale `*.tmp`
// sibling, which the owning package's startup scan quarantines. The
// atomicwrite analyzer in internal/lint enforces that these packages write
// through AtomicWrite and nothing else.
package fsx

import (
	"fmt"
	"os"
	"path/filepath"
)

// TmpExt is the suffix every in-flight temporary file carries. Startup
// scans (internal/store, internal/svc) treat any leftover `*.tmp` file as
// a crashed write: never a valid record, safe to quarantine.
const TmpExt = ".tmp"

// AtomicWrite writes data to path atomically: it creates a uniquely-named
// temporary sibling `<base>.*.tmp` in path's directory, writes and syncs
// the data, closes the file, sets perm, and renames it over path. On any
// failure the temporary file is removed (best-effort) and no partial write
// is ever visible at path.
//
// The temporary file lives in the same directory as the target, so the
// rename is a same-filesystem atomic replace, and a crash can only leave a
// `*.tmp` sibling — which directory scans recognize by TmpExt.
func AtomicWrite(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".*"+TmpExt)
	if err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	tmp := f.Name()
	fail := func(op string, err error) error {
		f.Close() // no-op if already closed
		//topocon:allow quarantine -- the failed write's own tmp sibling: never a visible record, nothing to preserve
		os.Remove(tmp)
		return fmt.Errorf("atomic write %s: %s: %w", path, op, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("write", err)
	}
	// Sync before rename: the rename must never be durable before the data
	// it commits (a crash between the two would atomically install an empty
	// or truncated file, defeating the whole idiom).
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Chmod(tmp, perm); err != nil {
		return fail("chmod", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail("rename", err)
	}
	return nil
}
