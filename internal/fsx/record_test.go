package fsx

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The three record formats of the repo, as internal/store and
// internal/ckpt declare them.
var (
	verdictFormat  = Format{Magic: "topocon-verdict", Version: 1, Tags: []string{"key", "outcome"}}
	leaseFormat    = Format{Magic: "topocon-lease", Version: 1, Tags: []string{"key", "holder", "state", "attempt", "expires"}}
	manifestFormat = Format{Magic: "topocon-ckpt", Version: 9, Tags: []string{"fingerprint", "interner", "meta"}}
)

func TestFormatRoundTrip(t *testing.T) {
	values := []string{"v3;fp=ab", `{"verdict":1,"notes":["a\nb"]}`}
	data := verdictFormat.Encode(values...)
	want := "topocon-verdict 1\nkey v3;fp=ab\noutcome {\"verdict\":1,\"notes\":[\"a\\nb\"]}\ncrc32 "
	if !strings.HasPrefix(string(data), want) || len(data) != len(want)+9 {
		t.Fatalf("Encode = %q", data)
	}
	got, err := verdictFormat.Decode(data)
	if err != nil || !slices.Equal(got, values) {
		t.Fatalf("Decode = %q, %v; want %q", got, err, values)
	}
	if got, err := leaseFormat.Decode(leaseFormat.Encode("k", "", "held", "0", "-1")); err != nil || got[1] != "" {
		t.Fatalf("empty value: %q, %v", got, err)
	}
}

// TestFormatDecodeRejects: each check of the framing rejects on its own;
// the cases built with Encode carry a valid checksum.
func TestFormatDecodeRejects(t *testing.T) {
	good := string(verdictFormat.Encode("k", "o"))
	for name, data := range map[string]string{
		"empty":             "",
		"no final newline":  strings.TrimSuffix(good, "\n"),
		"trailing bytes":    good + "x",
		"extra line":        strings.Replace(good, "outcome o\n", "outcome o\nextra\n", 1),
		"wrong magic":       strings.Replace(good, "topocon-verdict 1", "topocon-lease 1", 1),
		"non-canonical ver": strings.Replace(good, "topocon-verdict 1", "topocon-verdict 01", 1),
		"signed version":    strings.Replace(good, "topocon-verdict 1", "topocon-verdict +1", 1),
		"other version":     string(Format{Magic: "topocon-verdict", Version: 2, Tags: verdictFormat.Tags}.Encode("k", "o")),
		"uppercase crc":     good[:len(good)-9] + strings.ToUpper(good[len(good)-9:]),
		"short crc":         good[:len(good)-2] + "\n",
		"bad checksum":      strings.Replace(good, "outcome o", "outcome p", 1),
		"wrong tag":         string(Format{Magic: "topocon-verdict", Version: 1, Tags: []string{"key", "outcomes"}}.Encode("k", "o")),
		"tag without space": string(Format{Magic: "topocon-verdict", Version: 1, Tags: []string{"key", "outcomeo"}}.Encode("k", "")),
	} {
		if _, err := verdictFormat.Decode([]byte(data)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, data)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the framing decoder under each of
// the repo's three record formats: every input must be rejected or be
// exactly the Encode of the values Decode returns — never a panic.
func FuzzDecode(f *testing.F) {
	f.Add(verdictFormat.Encode("v3;fp=757f;in=2;mh=4", `{"verdict":1,"exact":true,"separationHorizon":2,"horizon":3,"runs":64}`))
	f.Add(leaseFormat.Encode("v3;fp=757f;in=2;mh=4", "w1", "held", "5", "1700000000000000123"))
	f.Add(manifestFormat.Encode("757f97d42ea2a449", "169 07063510", `{"options":{},"horizon":2,"rounds":[],"rowDigest":"21aa"}`))
	f.Add([]byte("topocon-ckpt 8\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{verdictFormat, leaseFormat, manifestFormat} {
			values, err := format.Decode(data)
			if err != nil {
				continue
			}
			if enc := format.Encode(values...); !bytes.Equal(enc, data) {
				t.Fatalf("%s: decode/encode not byte-identical:\n in  %q\n out %q", format.Magic, data, enc)
			}
		}
	})
}

// TestQuarantineKeepsEveryCopy: the same name quarantined twice keeps both
// copies, byte for byte, each in its own subdirectory.
func TestQuarantineKeepsEveryCopy(t *testing.T) {
	dir := t.TempDir()
	want := []string{"first bytes", "second bytes"}
	for _, data := range want {
		if err := os.WriteFile(filepath.Join(dir, "a.rec"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Quarantine(dir, "store", "a.rec"); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "a.rec")); !os.IsNotExist(err) {
			t.Fatalf("a.rec still in place: %v", err)
		}
	}
	found, _ := filepath.Glob(filepath.Join(dir, QuarantineDir, "store.*", "a.rec"))
	var got []string
	for _, p := range found {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(data))
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("quarantined copies %q, want %q", got, want)
	}
}

// TestQuarantinePartialFailure: missing names are skipped, a name that
// cannot be moved is reported while the others still move, and a call
// that finds nothing to move creates no subdirectory.
func TestQuarantinePartialFailure(t *testing.T) {
	dir := t.TempDir()
	if err := Quarantine(dir, "none", "missing"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !os.IsNotExist(err) {
		t.Fatalf("nothing to move created %s: %v", QuarantineDir, err)
	}
	// "sub/x" exists, but its rename target's parent does not.
	for _, d := range []string{"pages", "sub/x"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	err := Quarantine(dir, "ckpt", "missing", "sub/x", "pages")
	if err == nil || !strings.Contains(err.Error(), "sub/x") || strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want only sub/x named", err)
	}
	if found, _ := filepath.Glob(filepath.Join(dir, QuarantineDir, "ckpt.*", "pages")); len(found) != 1 {
		t.Fatalf("pages not moved: %v", found)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub", "x")); err != nil {
		t.Fatalf("the entry that failed to move is gone: %v", err)
	}
}
