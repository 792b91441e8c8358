package fsx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// QuarantineDir is the subdirectory of a durable directory that holds the
// bytes moved aside.
const QuarantineDir = "quarantine"

// Quarantine moves the named entries of dir — files or directories — into
// a fresh subdirectory `quarantine/<kind>.<random>/` of dir, keeping their
// names and bytes. Each call that moves anything gets its own subdirectory
// (os.MkdirTemp), so quarantining the same name twice keeps both copies.
// Names that do not exist are skipped: there is nothing to preserve. Every
// other name is tried; the error joins the moves that failed, and an entry
// that could not be moved stays where it was.
func Quarantine(dir, kind string, names ...string) error {
	var qdir string
	var errs []error
	for _, name := range names {
		src := filepath.Join(dir, name)
		if _, err := os.Lstat(src); errors.Is(err, os.ErrNotExist) {
			continue
		}
		if qdir == "" {
			root := filepath.Join(dir, QuarantineDir)
			err := os.MkdirAll(root, 0o755)
			if err == nil {
				qdir, err = os.MkdirTemp(root, kind+".*")
			}
			if err != nil {
				return fmt.Errorf("quarantine: %w", err)
			}
		}
		if err := os.Rename(src, filepath.Join(qdir, name)); err != nil {
			errs = append(errs, fmt.Errorf("quarantine %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}
