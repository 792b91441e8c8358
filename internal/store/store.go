// Package store is the disk-backed, content-addressed verdict store: one
// record per sweep.Key (behavioural fingerprint + resolved check options +
// certificate eligibility), addressed by the SHA-256 of the key's
// canonical encoding, checksummed, and written atomically via
// rename. It implements sweep.Tier, so layering it under a sweep.Cache
// (memory → disk → compute) makes verdicts survive process restarts and
// accumulate across CLI runs, daemon jobs and users.
//
// Record format (one file per key, `<sha256(key)>.rec`, version 1):
//
//	topocon-verdict 1
//	key <canonical key encoding, sweep.Key.String>
//	outcome <compact JSON of sweep.Outcome>
//	crc32 <8 lowercase hex digits, IEEE, over the three lines above>
//
// Writes go to `.tmp` siblings first and are renamed into place, so a
// crash can leave stale temp files but never a half-visible record. At
// startup the whole directory is scanned into an in-memory index; records
// that fail any validation — unparseable framing, checksum mismatch, a key
// that does not round-trip, a filename that is not the key's content
// address, undecodable outcome JSON — are moved to the `quarantine/`
// subdirectory (bytes preserved for inspection) and their keys simply
// recompute later. A corrupt record never poisons an answer and never
// fails Open.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"topocon/internal/fsx"
	"topocon/internal/sweep"
)

const (
	// recordVersion is the on-disk record format version; bump it when the
	// framing or the sweep.Outcome JSON schema changes incompatibly.
	recordVersion = 1
	// recordExt is the record file name suffix; tmpExt marks in-flight
	// writes (fsx.AtomicWrite temp siblings left behind by a crash).
	recordExt = ".rec"
	tmpExt    = fsx.TmpExt
	// quarantineDir collects records that failed validation at startup.
	quarantineDir = "quarantine"
)

// Stats describes a store's state and traffic.
type Stats struct {
	// Records and Bytes size the live index; Quarantined counts records
	// moved aside (at Open or on read) since the store was opened;
	// QuarantineErrors counts quarantine moves that themselves failed
	// (the bad file stayed in place — excluded from the index either way).
	Records          int   `json:"records"`
	Bytes            int64 `json:"bytes"`
	Quarantined      int   `json:"quarantined"`
	QuarantineErrors int   `json:"quarantineErrors,omitempty"`
	// Dir is the store directory.
	Dir string `json:"dir"`
}

// Store is a disk-backed content-addressed verdict store. It is safe for
// concurrent use. Get is served from the in-memory index (loaded once at
// Open); Put writes the record atomically and updates the index.
type Store struct {
	dir string

	mu             sync.RWMutex
	index          map[sweep.Key]sweep.Outcome
	bytes          int64
	quarantined    int
	quarantineErrs int
}

// Open creates the directory if needed and loads every record into the
// in-memory index. Leftover temp files and invalid records are quarantined
// (never deleted, never fatal); only I/O failures on the directory itself
// error.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[sweep.Key]sweep.Outcome)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpExt):
			// A crash mid-write: the record was never visible, so there is
			// nothing to recover — preserve the partial bytes for
			// inspection and move on.
			s.quarantine(name)
		case strings.HasSuffix(name, recordExt):
			key, out, size, err := s.loadRecord(name)
			if err != nil {
				s.quarantine(name)
				continue
			}
			s.index[key] = out
			s.bytes += size
		}
		// Anything else (editor droppings, the quarantine dir) is ignored.
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the stored outcome for the key. It never errors: a missing
// or previously-quarantined record is a miss. Implements sweep.Tier.
func (s *Store) Get(key sweep.Key) (sweep.Outcome, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out, ok := s.index[key]
	return out, ok
}

// Put stores the outcome under the key: the record is encoded, checksummed,
// written atomically (fsx.AtomicWrite: temp sibling, sync, rename), then
// indexed. Implements sweep.Tier.
func (s *Store) Put(key sweep.Key, out sweep.Outcome) error {
	data, err := encodeRecord(key, out)
	if err != nil {
		return err
	}
	name := recordName(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fsx.AtomicWrite(filepath.Join(s.dir, name), data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, existed := s.index[key]; !existed {
		s.bytes += int64(len(data))
	}
	s.index[key] = out
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns the store's current statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:          len(s.index),
		Bytes:            s.bytes,
		Quarantined:      s.quarantined,
		QuarantineErrors: s.quarantineErrs,
		Dir:              s.dir,
	}
}

// Keys returns every indexed key, in unspecified order.
func (s *Store) Keys() []sweep.Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]sweep.Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	return keys
}

// recordName is the content address of a key: the SHA-256 of its canonical
// encoding, hex, plus the record extension.
func recordName(key sweep.Key) string {
	sum := sha256.Sum256([]byte(key.String()))
	return hex.EncodeToString(sum[:]) + recordExt
}

// encodeRecord renders the versioned, checksummed record bytes.
func encodeRecord(key sweep.Key, out sweep.Outcome) ([]byte, error) {
	payload, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("store: encoding outcome: %w", err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "topocon-verdict %d\n", recordVersion)
	fmt.Fprintf(&b, "key %s\n", key.String())
	fmt.Fprintf(&b, "outcome %s\n", payload)
	fmt.Fprintf(&b, "crc32 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes(), nil
}

// decodeRecord parses and fully validates record bytes: framing, version,
// checksum, canonical key round-trip, outcome JSON strictness, and that the
// bytes are exactly the record's canonical encoding.
func decodeRecord(data []byte) (sweep.Key, sweep.Outcome, error) {
	var zero sweep.Key
	var zeroOut sweep.Outcome
	lines := strings.Split(string(data), "\n")
	if len(lines) != 5 || lines[4] != "" {
		return zero, zeroOut, fmt.Errorf("store: record must be exactly 4 newline-terminated lines")
	}
	var version int
	if _, err := fmt.Sscanf(lines[0], "topocon-verdict %d", &version); err != nil || lines[0] != fmt.Sprintf("topocon-verdict %d", version) {
		return zero, zeroOut, fmt.Errorf("store: bad header %q", lines[0])
	}
	if version != recordVersion {
		return zero, zeroOut, fmt.Errorf("store: unsupported record version %d", version)
	}
	sumLine, ok := strings.CutPrefix(lines[3], "crc32 ")
	if !ok || len(sumLine) != 8 {
		return zero, zeroOut, fmt.Errorf("store: bad checksum line %q", lines[3])
	}
	body := []byte(lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n")
	if want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)); sumLine != want {
		return zero, zeroOut, fmt.Errorf("store: checksum mismatch (%s != %s)", sumLine, want)
	}
	keyEnc, ok := strings.CutPrefix(lines[1], "key ")
	if !ok {
		return zero, zeroOut, fmt.Errorf("store: bad key line %q", lines[1])
	}
	key, err := sweep.ParseKey(keyEnc)
	if err != nil {
		return zero, zeroOut, err
	}
	payload, ok := strings.CutPrefix(lines[2], "outcome ")
	if !ok {
		return zero, zeroOut, fmt.Errorf("store: bad outcome line %q", lines[2])
	}
	dec := json.NewDecoder(strings.NewReader(payload))
	dec.DisallowUnknownFields()
	var out sweep.Outcome
	if err := dec.Decode(&out); err != nil {
		return zero, zeroOut, fmt.Errorf("store: decoding outcome: %w", err)
	}
	// Decode reads one JSON value and ignores what follows it, and JSON
	// allows other spellings of the same value. The other lines are
	// already checked exactly, so comparing the payload with the one
	// encodeRecord writes makes the record's bytes canonical.
	if canon, err := json.Marshal(out); err != nil || string(canon) != payload {
		return zero, zeroOut, fmt.Errorf("store: outcome is not in canonical form")
	}
	return key, out, nil
}

// loadRecord reads and validates one record file at startup, additionally
// checking that the filename is the key's content address (a record copied
// under a wrong name would otherwise shadow a different key's slot).
func (s *Store) loadRecord(name string) (sweep.Key, sweep.Outcome, int64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return sweep.Key{}, sweep.Outcome{}, 0, err
	}
	key, out, err := decodeRecord(data)
	if err != nil {
		return sweep.Key{}, sweep.Outcome{}, 0, err
	}
	if want := recordName(key); name != want {
		return sweep.Key{}, sweep.Outcome{}, 0, fmt.Errorf("store: record %s is not the content address of its key (%s)", name, want)
	}
	return key, out, int64(len(data)), nil
}

// quarantine moves a bad file into the quarantine subdirectory, creating it
// lazily. Failures degrade to leaving the file in place — quarantining is
// best-effort hygiene, never a correctness dependency (the file is already
// excluded from the index) — but they are logged and counted, never
// swallowed: a store that cannot move records aside has a misbehaving
// directory, and the operator should hear about it.
func (s *Store) quarantine(name string) {
	s.quarantined++
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.quarantineErrs++
		log.Printf("store: quarantine of %s: %v", name, err)
		return
	}
	if err := os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)); err != nil {
		s.quarantineErrs++
		log.Printf("store: quarantine of %s: %v", name, err)
	}
}
