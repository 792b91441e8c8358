package store

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"topocon/internal/check"
	"topocon/internal/sweep"
)

// TestRecordAndLeaseBytesPinned pins the bytes encodeRecord and
// encodeLease write for fixed inputs: a solvable and an impossible
// outcome, a held and a released lease. Records and leases on disk are
// read back only if they re-encode byte for byte, so a change to these
// bytes strands every file already written; the hashes must not move
// unless the format is changed on purpose, with a version bump.
func TestRecordAndLeaseBytesPinned(t *testing.T) {
	key := testKey(t, 4)
	solvable, err := encodeRecord(key, sweep.Outcome{
		Verdict: check.VerdictSolvable, Exact: true, SeparationHorizon: 2, Horizon: 3, Runs: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	impossible, err := encodeRecord(key, testOutcome())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"record/solvable":   solvable,
		"record/impossible": impossible,
		"lease/held": encodeLease(Lease{
			Key: key, Holder: "w1", State: LeaseHeld, Attempt: 5, Expires: time.Unix(1_700_000_000, 123),
		}),
		"lease/released": encodeLease(Lease{
			Key: key, Holder: "w-2", State: LeaseReleased, Attempt: 1, Expires: time.Unix(0, 7),
		}),
	}
	want := map[string]string{
		"record/solvable":   "1bfad26087293f98a339cbbb80683b0f0d83f52b0358c1ab4fb58cec08abb689",
		"record/impossible": "3e8994c25b01dc22b4f0971955bdfb9e4ec32a2429b45f5771d9a876c3a99c98",
		"lease/held":        "51c58e287f4ab093e090604f846eefb8b9a938da669c6c18c86ded0a2fa67293",
		"lease/released":    "c355e9010f5e958247f611ad9b6ab2ba2498f651ab08230b523e9e3fd56790ac",
	}
	for name, data := range got {
		sum := sha256.Sum256(data)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: sha256 %s, want %s\n%s", name, h, want[name], data)
		}
	}
}
