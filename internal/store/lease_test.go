package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openTestLeases returns a Leases on a temp dir with a settable fake
// clock, so expiry is tested without sleeping.
func openTestLeases(t *testing.T) (*Leases, *time.Time) {
	t.Helper()
	l, err := OpenLeases(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	l.now = func() time.Time { return now }
	return l, &now
}

func TestLeaseAcquireRenewRelease(t *testing.T) {
	l, now := openTestLeases(t)
	key := testKey(t, 4)

	if _, ok := l.Get(key); ok {
		t.Fatal("empty lease dir reports a lease")
	}
	prev, hadPrev, err := l.Acquire(key, "w1", time.Minute, 1)
	if err != nil || hadPrev {
		t.Fatalf("first Acquire = %+v, %v, %v", prev, hadPrev, err)
	}
	got, ok := l.Get(key)
	if !ok || got.Holder != "w1" || got.State != LeaseHeld || got.Attempt != 1 || !got.Live(*now) {
		t.Fatalf("Get after Acquire = %+v, %v", got, ok)
	}

	// Another worker is fenced out while the lease is live.
	if _, _, err := l.Acquire(key, "w2", time.Minute, 2); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("Acquire by w2 = %v, want ErrLeaseHeld", err)
	}

	// Renewal pushes the expiry forward.
	*now = now.Add(50 * time.Second)
	if err := l.Renew(key, "w1", time.Minute); err != nil {
		t.Fatal(err)
	}
	got, _ = l.Get(key)
	if !got.Live(now.Add(50 * time.Second)) {
		t.Fatalf("renewed lease expires at %v, want ≥ now+50s", got.Expires)
	}

	// Release flips the state; a successor may claim instantly.
	if err := l.Release(key, "w1"); err != nil {
		t.Fatal(err)
	}
	prev, hadPrev, err = l.Acquire(key, "w2", time.Minute, 2)
	if err != nil || !hadPrev || prev.State != LeaseReleased || prev.Holder != "w1" {
		t.Fatalf("Acquire after release = %+v, %v, %v", prev, hadPrev, err)
	}

	st := l.Stats()
	if st.Acquired != 2 || st.Renewed != 1 || st.Released != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestLeaseStealAfterExpiry(t *testing.T) {
	l, now := openTestLeases(t)
	key := testKey(t, 4)
	if _, _, err := l.Acquire(key, "w1", time.Minute, 1); err != nil {
		t.Fatal(err)
	}

	// Not yet expired: the steal is refused.
	if _, _, err := l.Acquire(key, "w2", time.Minute, 2); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("early steal = %v, want ErrLeaseHeld", err)
	}

	*now = now.Add(2 * time.Minute)
	prev, hadPrev, err := l.Acquire(key, "w2", time.Minute, 2)
	if err != nil {
		t.Fatalf("steal after expiry = %v", err)
	}
	// The previous record distinguishes a steal (held, expired) from a
	// graceful handover (released).
	if !hadPrev || prev.State != LeaseHeld || prev.Holder != "w1" || prev.Live(*now) {
		t.Fatalf("steal prev = %+v, %v", prev, hadPrev)
	}

	// The original holder is now fenced: renew and release both refuse.
	if err := l.Renew(key, "w1", time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Renew = %v, want ErrLeaseLost", err)
	}
	if err := l.Release(key, "w1"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Release = %v, want ErrLeaseLost", err)
	}
	// The successor's lease is untouched by the fenced calls.
	got, ok := l.Get(key)
	if !ok || got.Holder != "w2" || got.State != LeaseHeld {
		t.Fatalf("successor lease = %+v, %v", got, ok)
	}
}

func TestLeaseExpiredUnstolenRenews(t *testing.T) {
	l, now := openTestLeases(t)
	key := testKey(t, 4)
	if _, _, err := l.Acquire(key, "w1", time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	// The worker was slow, but nobody stole the cell: renewal revives it.
	*now = now.Add(5 * time.Minute)
	if err := l.Renew(key, "w1", time.Minute); err != nil {
		t.Fatalf("Renew of expired-but-unstolen lease = %v", err)
	}
	if got, _ := l.Get(key); !got.Live(*now) {
		t.Fatalf("revived lease not live: %+v", got)
	}
}

func TestLeaseReleaseMissingIsNoop(t *testing.T) {
	l, _ := openTestLeases(t)
	key := testKey(t, 4)
	if err := l.Release(key, "w1"); err != nil {
		t.Fatalf("Release of missing lease = %v", err)
	}
	// Double release by the same holder is also a no-op.
	if _, _, err := l.Acquire(key, "w1", time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(key, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(key, "w1"); err != nil {
		t.Fatalf("double Release = %v", err)
	}
}

func TestLeaseRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l1, err := OpenLeases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 4)
	if _, _, err := l1.Acquire(key, "w1", time.Hour, 3); err != nil {
		t.Fatal(err)
	}
	// A different process (fresh Leases on the same dir) sees the lease.
	l2, err := OpenLeases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := l2.Get(key)
	if !ok || got.Holder != "w1" || got.Attempt != 3 || got.Key != key {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
}

func TestLeaseCorruptQuarantined(t *testing.T) {
	l, _ := openTestLeases(t)
	key := testKey(t, 4)
	if _, _, err := l.Acquire(key, "w1", time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(l.Dir(), leaseName(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the holder without re-checksumming.
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), "holder w1", "holder w9", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(key); ok {
		t.Fatal("corrupt lease served as valid")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt lease still in place: %v", err)
	}
	if got := quarantined(t, l.Dir(), leaseName(key)); len(got) != 1 {
		t.Fatalf("corrupt lease not quarantined: %q", got)
	}
	if st := l.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	// Post-quarantine the key is free to claim again.
	if _, _, err := l.Acquire(key, "w2", time.Minute, 2); err != nil {
		t.Fatalf("Acquire after quarantine = %v", err)
	}
}

// TestLeaseQuarantineKeepsEveryCopy: the same corrupt lease name read
// twice leaves two quarantined copies, byte for byte.
func TestLeaseQuarantineKeepsEveryCopy(t *testing.T) {
	l, _ := openTestLeases(t)
	key := testKey(t, 4)
	name := leaseName(key)
	want := []string{"first corrupt lease\n", "second corrupt lease\n"}
	for _, data := range want {
		if err := os.WriteFile(filepath.Join(l.Dir(), name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := l.Get(key); ok {
			t.Fatal("corrupt lease served as valid")
		}
	}
	if st := l.Stats(); st.Quarantined != 2 || st.QuarantineErrors != 0 {
		t.Fatalf("stats = %+v, want 2 quarantined", st)
	}
	if got := quarantined(t, l.Dir(), name); !sameStrings(got, want) {
		t.Fatalf("quarantined copies %q, want %q", got, want)
	}
}

func TestLeaseWriteFuncSeam(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected")
	var calls int
	l, err := OpenLeases(dir, func(path string, data []byte, perm os.FileMode) error {
		calls++
		return boom
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Acquire(testKey(t, 4), "w1", time.Minute, 1); !errors.Is(err, boom) {
		t.Fatalf("Acquire through failing seam = %v", err)
	}
	if calls != 1 {
		t.Fatalf("write seam called %d times", calls)
	}
}

func TestLeaseDecodeRejectsTampering(t *testing.T) {
	key := testKey(t, 4)
	good := encodeLease(Lease{Key: key, Holder: "w1", State: LeaseHeld, Attempt: 1, Expires: time.Unix(1, 0)})
	if _, err := decodeLease(good); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for name, mut := range map[string]func(string) string{
		"truncated":    func(s string) string { return s[:len(s)-20] },
		"bad version":  func(s string) string { return strings.Replace(s, "topocon-lease 1", "topocon-lease 9", 1) },
		"bad state":    func(s string) string { return strings.Replace(s, "state held", "state zombie", 1) },
		"bad attempt":  func(s string) string { return strings.Replace(s, "attempt 1", "attempt x", 1) },
		"bad expiry":   func(s string) string { return strings.Replace(s, "expires 1000000000", "expires soon", 1) },
		"flipped byte": func(s string) string { return strings.Replace(s, "w1", "w2", 1) },
	} {
		if _, err := decodeLease([]byte(mut(string(good)))); err == nil {
			t.Errorf("%s: decodeLease accepted tampered bytes", name)
		}
	}
}
