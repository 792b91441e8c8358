// Package pager implements the slot-store paging layer under the
// out-of-core frontier: immutable column pages are persisted eagerly to
// checksummed page files (atomic temp+rename writes, like internal/store)
// and their in-memory copies are dropped LRU-first whenever the resident
// set exceeds a configurable hot-set budget. Owners register an eviction
// callback when a page is put or faulted; the callback drops the decoded
// in-memory representation, and the next access faults the page back in
// from disk.
//
// Pages are write-once: a frontier round never changes after it is built,
// so eviction needs no write-back and a fault needs no dirty tracking.
// Corrupt page files are quarantined (moved aside, never deleted) and the
// fault reports an error, mirroring internal/store's recovery contract.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"topocon/internal/fsx"
)

// pageMagic is the first line of every page file; the trailing version digit
// is bumped on incompatible format changes.
const pageMagic = "topocon-page1\n"

// Config collects the pager knobs.
type Config struct {
	// Dir is the directory page files are written to; created if absent.
	Dir string
	// HotBytes is the soft budget on resident page payload bytes; when the
	// hot set exceeds it, least-recently-used pages are evicted until it
	// fits. The most recently touched page is never evicted, so the hot set
	// may exceed the budget by one page. ≤ 0 means unlimited (pages are
	// still persisted, enabling checkpoints, but nothing is evicted).
	HotBytes int64
}

// Stats is a snapshot of the pager counters.
type Stats struct {
	// PagesWritten counts the page files Put and Persist wrote; a call
	// that found the file already on disk does not count.
	PagesWritten int64 `json:"pagesWritten"`
	// PagesSpilled counts evictions of resident pages from the hot set.
	PagesSpilled int64 `json:"pagesSpilled"`
	// PagesFaulted counts cold pages re-read from disk.
	PagesFaulted int64 `json:"pagesFaulted"`
	// HotBytes is the current resident payload byte count.
	HotBytes int64 `json:"hotBytes"`
	// PeakHotBytes is the high-water mark of HotBytes.
	PeakHotBytes int64 `json:"peakHotBytes"`
	// DiskBytes is the total payload bytes persisted on disk.
	DiskBytes int64 `json:"diskBytes"`
	// HotPages and TotalPages count resident and registered pages.
	HotPages   int64 `json:"hotPages"`
	TotalPages int64 `json:"totalPages"`
	// QuarantineErrors counts corrupt pages whose move into quarantine/
	// itself failed (the damaged file stayed in place).
	QuarantineErrors int64 `json:"quarantineErrors,omitempty"`
}

// entry is one registered page; entries form a doubly-linked LRU list of
// the resident set (head = most recently used).
type entry struct {
	id         string
	size       int64
	resident   bool
	onEvict    func()
	prev, next *entry
}

// Pager is the slot store. All methods are safe for concurrent use; evict
// callbacks run outside the pager lock.
type Pager struct {
	dir    string
	budget int64

	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used resident page
	tail    *entry // least recently used resident page

	hotBytes       int64
	peakHotBytes   int64
	diskBytes      int64
	written        int64
	spilled        int64
	faulted        int64
	quarantineErrs int64
}

// New opens a pager over cfg.Dir, creating the directory if needed.
func New(cfg Config) (*Pager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("pager: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pager: create dir: %w", err)
	}
	return &Pager{
		dir:     cfg.Dir,
		budget:  cfg.HotBytes,
		entries: make(map[string]*entry),
	}, nil
}

// Dir returns the page directory.
func (pg *Pager) Dir() string { return pg.dir }

// validID rejects ids that could escape the page directory or collide with
// the quarantine subdirectory.
func validID(id string) error {
	if id == "" {
		return errors.New("pager: empty page id")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("pager: invalid page id %q", id)
		}
	}
	return nil
}

func (pg *Pager) pagePath(id string) string {
	return filepath.Join(pg.dir, id+".page")
}

// encodePage frames a payload: magic, uvarint id length + id, uvarint
// payload length + payload, CRC32 (IEEE, little-endian) over all preceding
// bytes.
func encodePage(id string, payload []byte) []byte {
	buf := make([]byte, 0, len(pageMagic)+2*binary.MaxVarintLen64+len(id)+len(payload)+4)
	buf = append(buf, pageMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := fsx.Checksum(buf)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// decodePage validates a page file read for the given id and returns the
// payload. Every framing violation is an error, a non-minimal length
// varint included; nothing is guessed, so an accepted file is exactly
// encodePage(id, payload).
func decodePage(id string, data []byte) ([]byte, error) {
	if len(data) < len(pageMagic)+4 {
		return nil, errors.New("short page file")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), fsx.Checksum(body); got != want {
		return nil, fmt.Errorf("crc mismatch: got %08x want %08x", got, want)
	}
	if string(body[:len(pageMagic)]) != pageMagic {
		return nil, errors.New("bad magic")
	}
	rest := body[len(pageMagic):]
	idLen, k := binary.Uvarint(rest)
	if !minimalUvarint(rest, k) || idLen > uint64(len(rest)-k) {
		return nil, errors.New("bad id length")
	}
	rest = rest[k:]
	if string(rest[:idLen]) != id {
		return nil, fmt.Errorf("page id mismatch: file carries %q", rest[:idLen])
	}
	rest = rest[idLen:]
	payLen, k := binary.Uvarint(rest)
	if !minimalUvarint(rest, k) || payLen != uint64(len(rest)-k) {
		return nil, errors.New("bad payload length")
	}
	return rest[k:], nil
}

// minimalUvarint reports whether binary.Uvarint read a well-formed,
// minimally encoded varint of k bytes from the front of b.
func minimalUvarint(b []byte, k int) bool {
	return k > 0 && (k == 1 || b[k-1] != 0)
}

// Put persists a new page and registers it resident. onEvict is invoked
// (outside the pager lock) if the page is later evicted from the hot set;
// it must drop the owner's decoded copy so the next access faults. Put on
// an already-registered id is a programming error.
func (pg *Pager) Put(id string, payload []byte, onEvict func()) error {
	wrote, err := pg.persist(id, payload)
	if err != nil {
		return err
	}
	return pg.register(id, int64(len(payload)), onEvict, true, wrote)
}

// Register registers the page file a Persist of size payload bytes wrote
// for id as resident, exactly as Put of that payload would, without
// re-encoding or rewriting it.
func (pg *Pager) Register(id string, size int64, onEvict func()) error {
	return pg.register(id, size, onEvict, true, false)
}

// register adds an entry for id's page file, which is on disk: a resident
// page enters the hot set as the most recently used, a cold one waits for
// its first Fault. wrote says whether the caller just wrote the file,
// which counts it in PagesWritten.
func (pg *Pager) register(id string, size int64, onEvict func(), resident, wrote bool) error {
	if err := validID(id); err != nil {
		return err
	}
	pg.mu.Lock()
	if _, ok := pg.entries[id]; ok {
		pg.mu.Unlock()
		return fmt.Errorf("pager: page %q already registered", id)
	}
	e := &entry{id: id, size: size, resident: resident, onEvict: onEvict}
	pg.entries[id] = e
	pg.diskBytes += size
	if wrote {
		pg.written++
	}
	if !resident {
		pg.mu.Unlock()
		return nil
	}
	pg.pushFront(e)
	pg.hotBytes += size
	if pg.hotBytes > pg.peakHotBytes {
		pg.peakHotBytes = pg.hotBytes
	}
	evicted := pg.evictOverBudget(e)
	pg.mu.Unlock()
	runEvicts(evicted)
	return nil
}

// persist writes the framed page file atomically (fsx.AtomicWrite: temp
// sibling, sync, rename) and reports whether it wrote one. An existing
// file for the id is left untouched: page ids name rounds, and a round a
// resumed session re-registers has the bytes its checkpoint referenced.
// Pages a checkpoint does not reference must be moved aside before the
// session runs (QuarantineUnlisted), or a re-extended round would be
// served from an older run's file.
func (pg *Pager) persist(id string, payload []byte) (bool, error) {
	if err := validID(id); err != nil {
		return false, err
	}
	path := pg.pagePath(id)
	if _, err := os.Stat(path); err == nil {
		return false, nil
	}
	if err := fsx.AtomicWrite(path, encodePage(id, payload), 0o644); err != nil {
		return false, fmt.Errorf("pager: write page %q: %w", id, err)
	}
	return true, nil
}

// Persist writes a page file without registering it in the hot set. It is
// the checkpoint path for pages whose owner keeps them unconditionally
// resident (the head frontier round): the file makes the page restorable,
// and a later Register of the same id (or Put, which skips the write)
// registers it without rewriting.
func (pg *Pager) Persist(id string, payload []byte) error {
	wrote, err := pg.persist(id, payload)
	if err != nil || !wrote {
		return err
	}
	pg.mu.Lock()
	pg.written++
	pg.mu.Unlock()
	return nil
}

// ReadPage reads and validates a page file without touching registration —
// the restore path, which decodes pages before any frontier exists to own
// them. Corrupt files are quarantined, like Fault.
func (pg *Pager) ReadPage(id string) ([]byte, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(pg.pagePath(id))
	if err != nil {
		return nil, fmt.Errorf("pager: read page %q: %w", id, err)
	}
	payload, err := decodePage(id, data)
	if err != nil {
		pg.quarantine(id)
		return nil, fmt.Errorf("pager: page %q corrupt (quarantined): %w", id, err)
	}
	return payload, nil
}

// QuarantineUnlisted moves every page file in the directory whose id is
// not in keep into one fresh `quarantine/unlisted.<random>/` subdirectory
// (fsx.Quarantine: bytes preserved, never deleted) and returns the ids it
// moved. It is the resume path's guard: a crash between checkpoints
// leaves the pages of rounds the crashed run spilled past the checkpoint,
// and since persist keeps an existing file, the resumed session's own
// round of that number would be served from the crashed run's bytes.
// Call it before any page is registered.
func (pg *Pager) QuarantineUnlisted(keep []string) ([]string, error) {
	entries, err := os.ReadDir(pg.dir)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	listed := make(map[string]bool, len(keep))
	for _, id := range keep {
		listed[id] = true
	}
	var moved, names []string
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".page")
		if !ok || !e.Type().IsRegular() || listed[id] {
			continue
		}
		moved = append(moved, id)
		names = append(names, e.Name())
	}
	if err := fsx.Quarantine(pg.dir, "unlisted", names...); err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	return moved, nil
}

// SizeOf returns the payload size of a registered page.
func (pg *Pager) SizeOf(id string) (int64, bool) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	e, ok := pg.entries[id]
	if !ok {
		return 0, false
	}
	return e.size, true
}

// Adopt registers an already-persisted page (from a checkpoint being
// resumed) as cold. size is the payload byte count recorded alongside the
// page reference; the file itself is validated on first Fault.
func (pg *Pager) Adopt(id string, size int64, onEvict func()) error {
	return pg.register(id, size, onEvict, false, false)
}

// Fault reads a registered page back from disk, verifies its framing and
// checksum, marks it resident (most recently used) and returns the payload.
// A corrupt file is quarantined and reported as an error. onEvict replaces
// the entry's eviction callback for the new residency.
func (pg *Pager) Fault(id string, onEvict func()) ([]byte, error) {
	pg.mu.Lock()
	e, ok := pg.entries[id]
	pg.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pager: fault of unregistered page %q", id)
	}
	data, err := os.ReadFile(pg.pagePath(id))
	if err != nil {
		return nil, fmt.Errorf("pager: fault page %q: %w", id, err)
	}
	payload, err := decodePage(id, data)
	if err != nil {
		pg.quarantine(id)
		return nil, fmt.Errorf("pager: page %q corrupt (quarantined): %w", id, err)
	}
	pg.mu.Lock()
	e.onEvict = onEvict
	if !e.resident {
		e.resident = true
		e.size = int64(len(payload))
		pg.pushFront(e)
		pg.hotBytes += e.size
		if pg.hotBytes > pg.peakHotBytes {
			pg.peakHotBytes = pg.hotBytes
		}
		pg.faulted++
	} else {
		pg.touch(e)
	}
	evicted := pg.evictOverBudget(e)
	pg.mu.Unlock()
	runEvicts(evicted)
	return payload, nil
}

// quarantine moves a damaged page file into a fresh subdirectory of
// quarantine/ (fsx.Quarantine), best-effort: recovery must never be
// blocked by cleanup failures — but a failed move is logged and counted,
// never swallowed, because a page that cannot be moved aside will be
// re-read (and re-fail) on every fault.
func (pg *Pager) quarantine(id string) {
	if err := fsx.Quarantine(pg.dir, "page", id+".page"); err != nil {
		pg.mu.Lock()
		pg.quarantineErrs++
		pg.mu.Unlock()
		log.Printf("pager: page %q: %v", id, err)
	}
}

// Stats returns a snapshot of the counters.
func (pg *Pager) Stats() Stats {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	var hot int64
	for e := pg.head; e != nil; e = e.next {
		hot++
	}
	return Stats{
		PagesWritten:     pg.written,
		PagesSpilled:     pg.spilled,
		PagesFaulted:     pg.faulted,
		HotBytes:         pg.hotBytes,
		PeakHotBytes:     pg.peakHotBytes,
		DiskBytes:        pg.diskBytes,
		HotPages:         hot,
		TotalPages:       int64(len(pg.entries)),
		QuarantineErrors: pg.quarantineErrs,
	}
}

// evictOverBudget (called with pg.mu held) pops least-recently-used pages
// until the hot set fits the budget, never evicting the protected entry
// (the page the caller is about to use). It returns the callbacks to run
// once the lock is released.
func (pg *Pager) evictOverBudget(protected *entry) []func() {
	if pg.budget <= 0 {
		return nil
	}
	var evicts []func()
	for pg.hotBytes > pg.budget {
		victim := pg.tail
		for victim == protected {
			victim = victim.prev
		}
		if victim == nil {
			break
		}
		pg.unlink(victim)
		victim.resident = false
		pg.hotBytes -= victim.size
		pg.spilled++
		if victim.onEvict != nil {
			evicts = append(evicts, victim.onEvict)
			victim.onEvict = nil
		}
	}
	return evicts
}

func runEvicts(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}

// LRU list helpers; all called with pg.mu held.

func (pg *Pager) pushFront(e *entry) {
	e.prev, e.next = nil, pg.head
	if pg.head != nil {
		pg.head.prev = e
	}
	pg.head = e
	if pg.tail == nil {
		pg.tail = e
	}
}

func (pg *Pager) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pg.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pg.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (pg *Pager) touch(e *entry) {
	if pg.head == e {
		return
	}
	pg.unlink(e)
	pg.pushFront(e)
}
