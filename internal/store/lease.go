package store

// Lease records: the coordination half of the store. Where verdict
// records say "this cell's answer is X", lease records say "worker W is
// computing this cell until T". They live in their own directory (by
// convention `leases/` next to the per-cell checkpoints), one file per
// sweep key at the key's content address, so a coordinator and any number
// of workers sharing the directory agree on ownership without a network
// consensus layer: the filesystem rename is the commit point.
//
// Lease format (one file per key, `<sha256(key)>.lease`, version 1), in
// the checksummed text framing of fsx.Format:
//
//	topocon-lease 1
//	key <canonical key encoding, sweep.Key.String>
//	holder <worker id>
//	state <held|released>
//	attempt <dispatch attempt, 1-based>
//	expires <unix nanoseconds>
//	crc32 <8 lowercase hex digits, IEEE, over the six lines above>
//
// Fencing is by holder string: Renew and Release re-read the file and
// refuse (ErrLeaseLost) if another holder has taken over, so a worker
// that stalls past its TTL and wakes up after a steal cannot clobber the
// successor's lease. Acquire refuses (ErrLeaseHeld) while a live `held`
// lease names another holder; an expired or `released` lease is free to
// take, and the previous record is returned so the caller can tell a
// steal (expired, still held) from a graceful handover (released).
//
// Corrupt lease files are quarantined exactly like corrupt verdict
// records — moved into a fresh `quarantine/lease.<random>/` subdirectory
// (fsx.Quarantine), counted, never deleted — and then treated as
// absent: losing a lease record costs at most one redundant computation,
// never a wrong answer, because verdicts are idempotent in the shared
// store.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"topocon/internal/fsx"
	"topocon/internal/sweep"
)

const (
	leaseVersion = 1
	leaseExt     = ".lease"
)

// Lease states.
const (
	// LeaseHeld marks a live claim: the holder is (or was, until its TTL
	// ran out) computing the cell.
	LeaseHeld = "held"
	// LeaseReleased marks a graceful handover: the holder gave the cell
	// up (drain, abort) and a successor may take it immediately.
	LeaseReleased = "released"
)

var (
	// ErrLeaseHeld is returned by Acquire while another holder's lease is
	// live. Callers wait out the remaining TTL (or for a release) and
	// retry.
	ErrLeaseHeld = errors.New("store: lease held by another worker")
	// ErrLeaseLost is returned by Renew and Release when the caller no
	// longer owns the lease — it expired and a successor took over. The
	// only safe reaction is to stop working on the cell.
	ErrLeaseLost = errors.New("store: lease lost")
)

// WriteFunc is the durable-write seam: fsx.AtomicWrite in production,
// a faultfs-wrapped variant under fault injection.
type WriteFunc func(path string, data []byte, perm os.FileMode) error

// Lease is one decoded lease record.
type Lease struct {
	Key     sweep.Key
	Holder  string
	State   string
	Attempt int
	Expires time.Time
}

// Live reports whether the lease still excludes other holders at time
// now: it is held and its TTL has not run out.
func (l Lease) Live(now time.Time) bool {
	return l.State == LeaseHeld && now.Before(l.Expires)
}

// LeaseStats counts lease traffic since OpenLeases.
type LeaseStats struct {
	Acquired         int    `json:"acquired"`
	Renewed          int    `json:"renewed"`
	Released         int    `json:"released"`
	Quarantined      int    `json:"quarantined"`
	QuarantineErrors int    `json:"quarantineErrors,omitempty"`
	Dir              string `json:"dir"`
}

// Leases manages the lease records in one directory. Unlike Store it
// keeps no in-memory index: the directory is shared across processes, so
// every operation re-reads the file — the file IS the truth. It is safe
// for concurrent use within a process; cross-process mutual exclusion on
// the same key is the coordinator's job (one dispatcher per cell).
type Leases struct {
	dir   string
	write WriteFunc
	// now is the clock, swappable in tests.
	now func() time.Time

	mu       sync.Mutex
	acquired int
	renewed  int
	released int
	q        quarantines
}

// OpenLeases creates the lease directory if needed. write nil means
// fsx.AtomicWrite. Leftover temp files from crashed writers are
// quarantined at open, like Store's.
func OpenLeases(dir string, write WriteFunc) (*Leases, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty lease directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if write == nil {
		write = fsx.AtomicWrite
	}
	l := &Leases{dir: dir, write: write, now: time.Now}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var stale []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), fsx.TmpExt) {
			stale = append(stale, e.Name())
		}
	}
	l.q.quarantine(dir, "lease", stale...)
	return l, nil
}

// Dir returns the lease directory.
func (l *Leases) Dir() string { return l.dir }

// leaseName is the content address of a key's lease file.
func leaseName(key sweep.Key) string { return sweep.CellDir(key) + leaseExt }

// Get reads the current lease for the key. A missing or corrupt file is
// a miss (corrupt ones are quarantined first).
func (l *Leases) Get(key sweep.Key) (Lease, bool) {
	name := leaseName(key)
	data, err := os.ReadFile(filepath.Join(l.dir, name))
	if err != nil {
		return Lease{}, false
	}
	lease, err := decodeLease(data)
	if err != nil || lease.Key != key {
		l.mu.Lock()
		l.q.quarantine(l.dir, "lease", name)
		l.mu.Unlock()
		return Lease{}, false
	}
	return lease, true
}

// Acquire claims the key for holder with the given TTL. If a live lease
// names another holder it returns that lease and ErrLeaseHeld. Otherwise
// it writes a fresh held lease and returns the previous record (zero
// Lease, false if there was none) so the caller can classify the
// takeover: prev.State == LeaseHeld (and expired) is a steal,
// LeaseReleased a graceful handover.
func (l *Leases) Acquire(key sweep.Key, holder string, ttl time.Duration, attempt int) (prev Lease, hadPrev bool, err error) {
	if holder == "" {
		return Lease{}, false, fmt.Errorf("store: empty lease holder")
	}
	prev, hadPrev = l.Get(key)
	if hadPrev && prev.Holder != holder && prev.Live(l.now()) {
		return prev, true, fmt.Errorf("%w: %s until %s", ErrLeaseHeld, prev.Holder, prev.Expires.Format(time.RFC3339))
	}
	lease := Lease{Key: key, Holder: holder, State: LeaseHeld, Attempt: attempt, Expires: l.now().Add(ttl)}
	if err := l.put(lease); err != nil {
		return prev, hadPrev, err
	}
	l.mu.Lock()
	l.acquired++
	l.mu.Unlock()
	return prev, hadPrev, nil
}

// Renew extends holder's lease by ttl. ErrLeaseLost means another worker
// owns the record (or it vanished): the caller must abandon the cell.
// Renewal is allowed on an expired-but-unstolen lease — the worker was
// slow, nobody took the cell, the work is still valid.
func (l *Leases) Renew(key sweep.Key, holder string, ttl time.Duration) error {
	cur, ok := l.Get(key)
	if !ok || cur.Holder != holder || cur.State != LeaseHeld {
		return fmt.Errorf("%w: renewing %s", ErrLeaseLost, leaseName(key))
	}
	cur.Expires = l.now().Add(ttl)
	if err := l.put(cur); err != nil {
		return err
	}
	l.mu.Lock()
	l.renewed++
	l.mu.Unlock()
	return nil
}

// Release marks holder's lease released so a successor can claim the
// cell immediately instead of waiting out the TTL. ErrLeaseLost means a
// successor already took over — the record is theirs now, leave it be.
// Releasing an already-released or missing lease is a no-op.
func (l *Leases) Release(key sweep.Key, holder string) error {
	cur, ok := l.Get(key)
	if !ok || cur.State == LeaseReleased && cur.Holder == holder {
		return nil
	}
	if cur.Holder != holder {
		return fmt.Errorf("%w: releasing %s", ErrLeaseLost, leaseName(key))
	}
	cur.State = LeaseReleased
	if err := l.put(cur); err != nil {
		return err
	}
	l.mu.Lock()
	l.released++
	l.mu.Unlock()
	return nil
}

// Stats returns the lease traffic counters.
func (l *Leases) Stats() LeaseStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeaseStats{
		Acquired:         l.acquired,
		Renewed:          l.renewed,
		Released:         l.released,
		Quarantined:      l.q.moved,
		QuarantineErrors: l.q.errs,
		Dir:              l.dir,
	}
}

// put writes the lease record through the durable-write seam.
func (l *Leases) put(lease Lease) error {
	data := encodeLease(lease)
	if err := l.write(filepath.Join(l.dir, leaseName(lease.Key)), data, 0o644); err != nil {
		return fmt.Errorf("store: lease write: %w", err)
	}
	return nil
}

// leaseFormat is the framing of a lease record (see the comment at the
// top of this file); fsx owns the header, line and checksum checks.
var leaseFormat = fsx.Format{
	Magic:   "topocon-lease",
	Version: leaseVersion,
	Tags:    []string{"key", "holder", "state", "attempt", "expires"},
}

// encodeLease renders the versioned, checksummed lease bytes.
func encodeLease(lease Lease) []byte {
	return leaseFormat.Encode(lease.Key.String(), lease.Holder, lease.State,
		strconv.Itoa(lease.Attempt), strconv.FormatInt(lease.Expires.UnixNano(), 10))
}

// decodeLease parses and fully validates lease bytes: framing, version
// and checksum (fsx.Format), canonical key round-trip, state and numeric
// fields, and that the bytes are exactly the lease's canonical encoding.
func decodeLease(data []byte) (Lease, error) {
	values, err := leaseFormat.Decode(data)
	if err != nil {
		return Lease{}, fmt.Errorf("store: %w", err)
	}
	key, err := sweep.ParseKey(values[0])
	if err != nil {
		return Lease{}, err
	}
	holder, state := values[1], values[2]
	if holder == "" {
		return Lease{}, fmt.Errorf("store: empty lease holder")
	}
	if state != LeaseHeld && state != LeaseReleased {
		return Lease{}, fmt.Errorf("store: bad lease state %q", state)
	}
	attempt, err := strconv.Atoi(values[3])
	if err != nil || attempt < 0 {
		return Lease{}, fmt.Errorf("store: bad lease attempt %q", values[3])
	}
	expNano, err := strconv.ParseInt(values[4], 10, 64)
	if err != nil {
		return Lease{}, fmt.Errorf("store: bad lease expiry %q", values[4])
	}
	lease := Lease{
		Key:     key,
		Holder:  holder,
		State:   state,
		Attempt: attempt,
		Expires: time.Unix(0, expNano),
	}
	// strconv accepts a sign and leading zeros ("attempt +05"): only the
	// bytes encodeLease would write for this lease are a valid lease.
	if !bytes.Equal(encodeLease(lease), data) {
		return Lease{}, fmt.Errorf("store: lease is not in canonical form")
	}
	return lease, nil
}
