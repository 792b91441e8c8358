package pager

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTestPager(t *testing.T, budget int64) *Pager {
	t.Helper()
	pg, err := New(Config{Dir: t.TempDir(), HotBytes: budget})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pg
}

func TestPutFaultRoundTrip(t *testing.T) {
	pg := newTestPager(t, 0)
	payload := []byte("hello columnar world")
	if err := pg.Put("round-001", payload, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	pg.Release("round-001")
	got, err := pg.Fault("round-001", nil)
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Fault returned %q, want %q", got, payload)
	}
	st := pg.Stats()
	if st.PagesWritten != 1 || st.PagesFaulted != 1 || st.PagesSpilled != 1 {
		t.Fatalf("stats = %+v, want 1 written / 1 faulted / 1 spilled", st)
	}
}

// TestPersistedPageCountsOneWrite: a page Persist wrote is one file and one
// write, whether it is then registered with Register or handed to Put
// (whose write the existing file skips), and both register it alike.
func TestPersistedPageCountsOneWrite(t *testing.T) {
	payload := []byte("the checkpointed head round")
	for _, viaPut := range []bool{false, true} {
		pg := newTestPager(t, 0)
		if err := pg.Persist("r1", payload); err != nil {
			t.Fatalf("Persist: %v", err)
		}
		var err error
		if viaPut {
			err = pg.Put("r1", payload, nil)
		} else {
			err = pg.Register("r1", int64(len(payload)), nil)
		}
		if err != nil {
			t.Fatalf("register (Put %v): %v", viaPut, err)
		}
		files, _ := filepath.Glob(filepath.Join(pg.Dir(), "*.page"))
		st := pg.Stats()
		if len(files) != 1 || st.PagesWritten != 1 {
			t.Fatalf("Put %v: %d page files, %d written; want 1 and 1", viaPut, len(files), st.PagesWritten)
		}
		if st.HotBytes != int64(len(payload)) || st.DiskBytes != int64(len(payload)) || st.TotalPages != 1 {
			t.Fatalf("Put %v: stats %+v", viaPut, st)
		}
		if got, err := pg.Fault("r1", nil); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Put %v: Fault = %q, %v", viaPut, got, err)
		}
		if err := pg.Register("r1", 1, nil); err == nil {
			t.Fatal("Register of a registered page succeeded")
		}
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	pg := newTestPager(t, 25)
	evicted := map[string]bool{}
	page := func(id string) {
		if err := pg.Put(id, bytes.Repeat([]byte{0xAB}, 10), func() { evicted[id] = true }); err != nil {
			t.Fatalf("Put(%s): %v", id, err)
		}
	}
	page("a")
	page("b")
	if len(evicted) != 0 {
		t.Fatalf("evictions before budget exceeded: %v", evicted)
	}
	page("c") // 30 bytes hot > 25: the LRU page "a" must go
	if !evicted["a"] || evicted["b"] || evicted["c"] {
		t.Fatalf("evicted = %v, want only a", evicted)
	}
	st := pg.Stats()
	if st.HotBytes != 20 || st.HotPages != 2 || st.TotalPages != 3 {
		t.Fatalf("stats = %+v, want hot 20 bytes / 2 pages of 3", st)
	}
	if st.PeakHotBytes < 20 || st.PeakHotBytes > 30 {
		t.Fatalf("peak hot bytes %d out of range", st.PeakHotBytes)
	}
	// Faulting "a" back in must evict the now-LRU "b", not the faulted page.
	if _, err := pg.Fault("a", func() { evicted["a2"] = true }); err != nil {
		t.Fatalf("Fault(a): %v", err)
	}
	if !evicted["b"] {
		t.Fatalf("faulting a did not evict b: %v", evicted)
	}
}

func TestProtectedPageSurvivesTinyBudget(t *testing.T) {
	pg := newTestPager(t, 5) // smaller than any single page
	if err := pg.Put("only", bytes.Repeat([]byte{1}, 10), nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if st := pg.Stats(); st.HotPages != 1 {
		t.Fatalf("protected page was evicted: %+v", st)
	}
}

func TestFaultCorruptPageQuarantines(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
	} {
		t.Run(name, func(t *testing.T) {
			pg := newTestPager(t, 0)
			if err := pg.Put("victim", []byte("some page payload bytes"), nil); err != nil {
				t.Fatalf("Put: %v", err)
			}
			pg.Release("victim")
			path := filepath.Join(pg.Dir(), "victim.page")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read page: %v", err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatalf("corrupt page: %v", err)
			}
			if _, err := pg.Fault("victim", nil); err == nil {
				t.Fatal("Fault of corrupt page succeeded")
			} else if !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("Fault error %q does not mention quarantine", err)
			}
			if _, err := os.Stat(filepath.Join(pg.Dir(), "quarantine", "victim.page")); err != nil {
				t.Fatalf("corrupt page not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt page still in place: %v", err)
			}
		})
	}
}

// TestQuarantineUnlistedMovesStalePages: every page file not listed moves
// into a stamped quarantine subdirectory with its bytes intact; listed
// pages, the quarantine directory and non-page files stay in place, and a
// second call finds nothing left to move.
func TestQuarantineUnlistedMovesStalePages(t *testing.T) {
	pg := newTestPager(t, 0)
	for _, id := range []string{"round-001", "round-002", "round-003"} {
		if err := pg.Persist(id, []byte("payload of "+id)); err != nil {
			t.Fatalf("Persist: %v", err)
		}
	}
	stale, err := os.ReadFile(filepath.Join(pg.Dir(), "round-003.page"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pg.Dir(), "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	moved, err := pg.QuarantineUnlisted([]string{"round-001", "round-002"})
	if err != nil || len(moved) != 1 || moved[0] != "round-003" {
		t.Fatalf("QuarantineUnlisted moved %v, err %v; want [round-003]", moved, err)
	}
	for _, name := range []string{"round-001.page", "round-002.page", "notes.txt"} {
		if _, err := os.Stat(filepath.Join(pg.Dir(), name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	found, _ := filepath.Glob(filepath.Join(pg.Dir(), "quarantine", "*", "round-003.page"))
	if len(found) != 1 {
		t.Fatalf("quarantined copies of round-003: %v", found)
	}
	if got, err := os.ReadFile(found[0]); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("quarantined page bytes changed (err %v)", err)
	}
	if moved, err := pg.QuarantineUnlisted([]string{"round-001", "round-002"}); err != nil || len(moved) != 0 {
		t.Fatalf("second call moved %v, err %v", moved, err)
	}
}

func TestAdoptThenFault(t *testing.T) {
	dir := t.TempDir()
	pg1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	payload := []byte("persisted across processes")
	if err := pg1.Put("r1", payload, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A fresh pager over the same dir (the resume path) adopts by reference.
	pg2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := pg2.Adopt("r1", int64(len(payload)), nil); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	got, err := pg2.Fault("r1", nil)
	if err != nil {
		t.Fatalf("Fault after Adopt: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Fault returned %q, want %q", got, payload)
	}
	if err := pg2.Adopt("r1", 1, nil); err == nil {
		t.Fatal("double Adopt succeeded")
	}
}

func TestInvalidIDs(t *testing.T) {
	pg := newTestPager(t, 0)
	for _, id := range []string{"", "../escape", "a/b", "sp ace"} {
		if err := pg.Put(id, []byte("x"), nil); err == nil {
			t.Fatalf("Put(%q) succeeded", id)
		}
	}
	if _, err := pg.Fault("never-registered", nil); err == nil {
		t.Fatal("Fault of unregistered page succeeded")
	}
}
