package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"topocon/internal/check"
	"topocon/internal/sweep"
)

// reseal replaces the checksum line of an encoded record or lease with the
// checksum of the lines above it, so a tampered body reaches the decoder's
// checks past the checksum.
func reseal(data string) []byte {
	body := data[:strings.LastIndex(strings.TrimSuffix(data, "\n"), "\n")+1]
	return []byte(body + fmt.Sprintf("crc32 %08x\n", crc32.ChecksumIEEE([]byte(body))))
}

// TestLeaseDecodeRejectsNonCanonical pins that a lease carrying a valid
// checksum but a number spelled with a sign or leading zeros is rejected:
// strconv accepts both, and the re-encoding would differ from the bytes
// on disk.
func TestLeaseDecodeRejectsNonCanonical(t *testing.T) {
	key := testKey(t, 4)
	good := string(encodeLease(Lease{Key: key, Holder: "w1", State: LeaseHeld, Attempt: 5, Expires: time.Unix(0, 7)}))
	if _, err := decodeLease(reseal(good)); err != nil {
		t.Fatalf("resealed canonical lease: %v", err)
	}
	for _, c := range []struct{ from, to string }{
		{"attempt 5\n", "attempt +05\n"},
		{"attempt 5\n", "attempt 05\n"},
		{"expires 7\n", "expires 0007\n"},
		{"expires 7\n", "expires +7\n"},
	} {
		data := reseal(strings.Replace(good, c.from, c.to, 1))
		if _, err := decodeLease(data); err == nil {
			t.Errorf("%q: decodeLease accepted non-canonical bytes", c.to)
		}
	}
}

// TestRecordDecodeRejectsNonCanonical pins that a record carrying a valid
// checksum but an outcome line that is not encodeRecord's exact JSON —
// trailing bytes after the value, or another spelling of it — is rejected.
func TestRecordDecodeRejectsNonCanonical(t *testing.T) {
	key := testKey(t, 4)
	out := sweep.Outcome{Verdict: check.VerdictSolvable, Exact: true, SeparationHorizon: 2, Horizon: 3, Runs: 64}
	raw, err := encodeRecord(key, out)
	if err != nil {
		t.Fatal(err)
	}
	good := string(raw)
	if _, _, err := decodeRecord(reseal(good)); err != nil {
		t.Fatalf("resealed canonical record: %v", err)
	}
	for name, mut := range map[string]func(string) string{
		"trailing value":   func(s string) string { return strings.Replace(s, "}\ncrc32", "}{}\ncrc32", 1) },
		"trailing garbage": func(s string) string { return strings.Replace(s, "}\ncrc32", "} junk\ncrc32", 1) },
		"trailing space":   func(s string) string { return strings.Replace(s, "}\ncrc32", "} \ncrc32", 1) },
		"inner space":      func(s string) string { return strings.Replace(s, `"runs":64`, `"runs": 64`, 1) },
		"number spelling":  func(s string) string { return strings.Replace(s, `"runs":64`, `"runs":6.4e1`, 1) },
	} {
		data := reseal(mut(good))
		if bytes.Equal(data, raw) {
			t.Fatalf("%s: mutation did not change the record", name)
		}
		if _, _, err := decodeRecord(data); err == nil {
			t.Errorf("%s: decodeRecord accepted non-canonical bytes %q", name, data)
		}
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: every
// input must yield an error or a key and outcome whose re-encoding is
// byte-identical to the input — never a panic.
func FuzzDecodeRecord(f *testing.F) {
	key := testKey(f, 4)
	for _, out := range []sweep.Outcome{testOutcome(), {Verdict: check.VerdictUnknown, SeparationHorizon: -1}} {
		data, err := encodeRecord(key, out)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(reseal(strings.Replace(string(data), "}\ncrc32", "}{}\ncrc32", 1)))
	}
	f.Add([]byte("topocon-verdict 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		key, out, err := decodeRecord(data)
		if err != nil {
			return
		}
		enc, err := encodeRecord(key, out)
		if err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not byte-identical:\n in  %q\n out %q", data, enc)
		}
	})
}

// FuzzDecodeLease feeds arbitrary bytes to the lease decoder: every input
// must yield an error or a lease whose re-encoding is byte-identical to
// the input — never a panic.
func FuzzDecodeLease(f *testing.F) {
	key := testKey(f, 4)
	good := encodeLease(Lease{Key: key, Holder: "w1", State: LeaseHeld, Attempt: 5, Expires: time.Unix(0, 7)})
	f.Add(good)
	f.Add(encodeLease(Lease{Key: key, Holder: "w-2", State: LeaseReleased, Expires: time.Unix(1_700_000_000, 0)}))
	f.Add(reseal(strings.Replace(string(good), "attempt 5\n", "attempt +05\n", 1)))
	f.Add([]byte("topocon-lease 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lease, err := decodeLease(data)
		if err != nil {
			return
		}
		if enc := encodeLease(lease); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not byte-identical:\n in  %q\n out %q", data, enc)
		}
	})
}
