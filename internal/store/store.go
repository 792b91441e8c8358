// Package store is the disk-backed, content-addressed verdict store: one
// record per sweep.Key (behavioural fingerprint + resolved check options +
// certificate eligibility), addressed by the SHA-256 of the key's
// canonical encoding, checksummed, and written atomically via
// rename. It implements sweep.Tier, so layering it under a sweep.Cache
// (memory → disk → compute) makes verdicts survive process restarts and
// accumulate across CLI runs, daemon jobs and users.
//
// Record format (one file per key, `<sha256(key)>.rec`, version 1), in
// the checksummed text framing of fsx.Format:
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
// address, undecodable outcome JSON — are moved, with the temp files, into
// one fresh `quarantine/store.<random>/` subdirectory (fsx.Quarantine:
// bytes preserved for inspection, no earlier copy replaced) and their keys
// simply recompute later. A corrupt record never poisons an answer and
// never fails Open.
package store

import (
	"encoding/json"
	"fmt"
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
	// recordExt is the record file name suffix.
	recordExt = ".rec"
)

// Stats describes a store's state and traffic.
type Stats struct {
	// Records and Bytes size the live index; Quarantined counts the bad
	// files (records, temp files) Open found; QuarantineErrors counts Open
	// scans whose quarantine move failed in part or whole (the files that
	// could not move stayed in place — excluded from the index either way).
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

	mu    sync.RWMutex
	index map[sweep.Key]sweep.Outcome
	bytes int64
	q     quarantines
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
	var bad []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, fsx.TmpExt):
			// A crash mid-write: the record was never visible, so there is
			// nothing to recover — preserve the partial bytes for
			// inspection and move on.
			bad = append(bad, name)
		case strings.HasSuffix(name, recordExt):
			key, out, size, err := s.loadRecord(name)
			if err != nil {
				bad = append(bad, name)
				continue
			}
			s.index[key] = out
			s.bytes += size
		}
		// Anything else (editor droppings, the quarantine dir) is ignored.
	}
	s.q.quarantine(dir, "store", bad...)
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
		Quarantined:      s.q.moved,
		QuarantineErrors: s.q.errs,
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

// recordName is the content address of a key (sweep.CellDir) plus the
// record extension.
func recordName(key sweep.Key) string { return sweep.CellDir(key) + recordExt }

// recordFormat is the framing of a verdict record (see the package
// comment); fsx owns the header, line and checksum checks.
var recordFormat = fsx.Format{Magic: "topocon-verdict", Version: recordVersion, Tags: []string{"key", "outcome"}}

// encodeRecord renders the versioned, checksummed record bytes.
func encodeRecord(key sweep.Key, out sweep.Outcome) ([]byte, error) {
	payload, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("store: encoding outcome: %w", err)
	}
	return recordFormat.Encode(key.String(), string(payload)), nil
}

// decodeRecord parses and fully validates record bytes: framing, version
// and checksum (fsx.Format), canonical key round-trip, outcome JSON
// strictness, and that the bytes are exactly the record's canonical
// encoding.
func decodeRecord(data []byte) (sweep.Key, sweep.Outcome, error) {
	values, err := recordFormat.Decode(data)
	if err != nil {
		return sweep.Key{}, sweep.Outcome{}, fmt.Errorf("store: %w", err)
	}
	key, err := sweep.ParseKey(values[0])
	if err != nil {
		return sweep.Key{}, sweep.Outcome{}, err
	}
	payload := values[1]
	dec := json.NewDecoder(strings.NewReader(payload))
	dec.DisallowUnknownFields()
	var out sweep.Outcome
	if err := dec.Decode(&out); err != nil {
		return sweep.Key{}, sweep.Outcome{}, fmt.Errorf("store: decoding outcome: %w", err)
	}
	// Decode reads one JSON value and ignores what follows it, and JSON
	// allows other spellings of the same value. The framing is already
	// checked exactly, so comparing the payload with the one encodeRecord
	// writes makes the record's bytes canonical.
	if canon, err := json.Marshal(out); err != nil || string(canon) != payload {
		return sweep.Key{}, sweep.Outcome{}, fmt.Errorf("store: outcome is not in canonical form")
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

// quarantines counts one directory's quarantine traffic; Store and Leases
// each keep one, under their own lock.
type quarantines struct{ moved, errs int }

// quarantine moves bad files into a fresh subdirectory of dir's
// quarantine/ (fsx.Quarantine). Failures degrade to leaving the files in
// place — quarantining is best-effort hygiene, never a correctness
// dependency (the files are already excluded from every answer) — but
// they are logged and counted, never swallowed: a directory that cannot
// move files aside is misbehaving, and the operator should hear about it.
func (q *quarantines) quarantine(dir, kind string, names ...string) {
	q.moved += len(names)
	if err := fsx.Quarantine(dir, kind, names...); err != nil {
		q.errs++
		log.Printf("store: %v", err)
	}
}
