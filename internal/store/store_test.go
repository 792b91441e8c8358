package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"topocon/internal/check"
	"topocon/internal/ma"
	"topocon/internal/sweep"
)

func testKey(t testing.TB, maxHorizon int) sweep.Key {
	t.Helper()
	key, err := sweep.KeyFor(ma.LossyLink3(), check.Options{MaxHorizon: maxHorizon})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func testOutcome() sweep.Outcome {
	return sweep.Outcome{
		Verdict:           check.VerdictImpossible,
		Exact:             true,
		SeparationHorizon: -1,
		Horizon:           4,
		Runs:              123,
		Notes:             []string{"note with\nnewline and \"quotes\""},
	}
}

// TestStoreRoundTrip: Put → Get in-process, and Put → reopen → Get across
// processes; the reopened index serves identical outcomes.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, out := testKey(t, 4), testOutcome()
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reports a hit")
	}
	if err := s.Put(key, out); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || got.Verdict != out.Verdict || got.Runs != out.Runs || len(got.Notes) != 1 || got.Notes[0] != out.Notes[0] {
		t.Fatalf("Get = %+v, %v", got, ok)
	}

	// Overwrite is idempotent and keeps one record.
	if err := s.Put(key, out); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after re-put", s.Len())
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = reopened.Get(key)
	if !ok || got.Verdict != out.Verdict || got.Exact != out.Exact || got.Horizon != out.Horizon {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
	st := reopened.Stats()
	if st.Records != 1 || st.Quarantined != 0 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(reopened.Keys()) != 1 || reopened.Keys()[0] != key {
		t.Fatalf("keys = %v", reopened.Keys())
	}
}

// recordPath returns the single .rec file in dir.
func recordPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.rec"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob: %v, %v", matches, err)
	}
	return matches[0]
}

// corruptionCase writes one store record and mangles it; reopening must
// quarantine the record (miss, no crash, moved into quarantine/) and leave
// the store fully usable, including recomputing and re-persisting the key.
func corruptionCase(t *testing.T, mangle func(t *testing.T, path string)) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, out := testKey(t, 4), testOutcome()
	if err := s.Put(key, out); err != nil {
		t.Fatal(err)
	}
	mangle(t, recordPath(t, dir))

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt record failed Open: %v", err)
	}
	if _, ok := reopened.Get(key); ok {
		t.Fatal("corrupt record served an outcome")
	}
	if st := reopened.Stats(); st.Quarantined != 1 || st.Records != 0 {
		t.Fatalf("stats = %+v, want 1 quarantined / 0 records", st)
	}
	if qfiles := quarantined(t, dir, "*.rec"); len(qfiles) != 1 {
		t.Fatalf("quarantined records: %q", qfiles)
	}
	// The key recomputes and persists again.
	if err := reopened.Put(key, out); err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.Get(key); !ok || got.Verdict != out.Verdict {
		t.Fatalf("re-put Get = %+v, %v", got, ok)
	}
	final, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := final.Get(key); !ok {
		t.Fatal("re-persisted record lost on reopen")
	}
}

func TestStoreTruncatedRecord(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreChecksumMismatch(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte inside the outcome payload; framing stays intact,
		// so only the checksum catches it.
		i := bytes.Index(data, []byte(`"runs":123`))
		if i < 0 {
			t.Fatalf("payload marker missing in %q", data)
		}
		data[i+7] = '9'
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreWrongContentAddress(t *testing.T) {
	corruptionCase(t, func(t *testing.T, path string) {
		// A valid record copied under a wrong name must not be indexed.
		renamed := filepath.Join(filepath.Dir(path), strings.Repeat("ab", 32)+".rec")
		if err := os.Rename(path, renamed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStorePartialTempFile: a leftover temp file from a crashed write is
// quarantined at startup and never shadows or poisons records.
func TestStorePartialTempFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, out := testKey(t, 4), testOutcome()
	if err := s.Put(key, out); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write of another record.
	partial := filepath.Join(dir, strings.Repeat("cd", 32)+".rec.tmp")
	if err := os.WriteFile(partial, []byte("topocon-verdict 1\nkey v1;fp="), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(key); !ok {
		t.Fatal("intact record lost next to a temp file")
	}
	st := reopened.Stats()
	if st.Records != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 record / 1 quarantined", st)
	}
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatalf("temp file still in the store dir: %v", err)
	}
}

// TestStoreQuarantineKeepsEveryCopy: a corrupt record quarantined at one
// Open and a second corrupt record under the same name quarantined at the
// next both stay in quarantine/, byte for byte — the second move must not
// replace the first copy.
func TestStoreQuarantineKeepsEveryCopy(t *testing.T) {
	dir := t.TempDir()
	name := recordName(testKey(t, 4))
	want := []string{"first corrupt bytes\n", "second corrupt bytes\n"}
	for _, data := range want {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Quarantined != 1 || st.QuarantineErrors != 0 {
			t.Fatalf("stats = %+v, want 1 quarantined", st)
		}
	}
	if got := quarantined(t, dir, name); !sameStrings(got, want) {
		t.Fatalf("quarantined copies %q, want %q", got, want)
	}
}

// quarantined returns the contents of every quarantined file matching the
// name pattern under dir/quarantine/, sorted.
func quarantined(t *testing.T, dir, name string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "quarantine", "*", name))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	return strings.Join(a, "\x00") == strings.Join(b, "\x00") && len(a) == len(b)
}

// TestStoreAsSweepTier: the store under a sweep cache — computed once,
// then served from the disk tier by a fresh cache (the restart path), with
// the sweep report attributing the disk tier.
func TestStoreAsSweepTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tier sweep.Tier = s // compile-time interface check, used below

	key := testKey(t, 4)
	cache := sweep.NewTieredCache(tier)
	want := testOutcome()
	out, hit, err := cache.Do(context.Background(), key, func() (sweep.Outcome, error) { return want, nil })
	if err != nil || hit != sweep.TierNone || out.Verdict != want.Verdict {
		t.Fatalf("compute pass = %+v, %v, %v", out, hit, err)
	}

	// Restart: fresh store over the same dir, fresh cache.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := sweep.NewTieredCache(s2)
	out, hit, err = cache2.Do(context.Background(), key, func() (sweep.Outcome, error) {
		t.Fatal("restart recomputed a persisted key")
		return sweep.Outcome{}, nil
	})
	if err != nil || hit != sweep.TierDisk || out.Verdict != want.Verdict {
		t.Fatalf("restart pass = %+v, %v, %v", out, hit, err)
	}
}

// TestStoreConcurrentPuts: concurrent writers over distinct and identical
// keys leave a consistent index and readable records (run under -race).
func TestStoreConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]sweep.Key, 8)
	for i := range keys {
		keys[i] = testKey(t, i+2)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				if err := s.Put(k, testOutcome()); err != nil {
					t.Error(err)
				}
				s.Get(k)
				s.Stats()
			}
		}()
	}
	wg.Wait()
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != len(keys) || reopened.Stats().Quarantined != 0 {
		t.Fatalf("reopened stats = %+v", reopened.Stats())
	}
}
