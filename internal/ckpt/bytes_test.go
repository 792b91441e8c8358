package ckpt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"topocon/internal/advgen"
	"topocon/internal/check"
)

// TestCheckpointBytesPinned pins the bytes a checkpoint writes: the
// interner export and the page files of lossy-star-4 saved at horizons 5
// and 6, under its quotient (S₃ on the leaves, paired with the swap of
// the two input values) and without symmetry. The interner assigns
// IDs in interning order and pages hold those IDs, so any change to the
// order views are interned in, to the key encoding or to the page format
// shows here. The hashes were computed once and must not move unless one
// of those formats is changed on purpose (with a version bump).
func TestCheckpointBytesPinned(t *testing.T) {
	want := map[string]string{
		"S3/5/interner":      "1438cb47375cd5fba1413e6facd7a66076cfb6f09d325f74689f32364f54048c",
		"S3/5/pages":         "0a461d94b7d134401c1705220c9b7cb13ff6ed57fffc9694e9945c2ad9a4e4d5",
		"S3/6/interner":      "b4162ddabcc072e847451dcb97b8697496d3f0afe19e3743df92979f3bb3a251",
		"S3/6/pages":         "2503aa1ba70d6219fcf3ce6bd7a7c14b196b5875cd99efe8217bf46becea3f97",
		"trivial/5/interner": "f4f22334aa24777012f8c7a68a9890e0887f1236455174eacfe0be2c35cb81e9",
		"trivial/5/pages":    "dede212511b0e432e425bcce5838999d9aa51fa2cb281745987d89f0f609dbb0",
		"trivial/6/interner": "91a600166a7158bbc01c5fdbf331fafbc5a5c6e28ce7fccd4fccf4c36517055f",
		"trivial/6/pages":    "e295e047e694dab38acf0db97707e38bd5bd9129024e3159d9c9fb4b7dcd2646",
	}
	for _, noSym := range []bool{false, true} {
		group := "S3"
		if noSym {
			group = "trivial"
		}
		dir := filepath.Join(t.TempDir(), "ckpt")
		pg, err := Fresh(dir, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		a, err := check.NewAnalyzer(advgen.LossyStar4(),
			check.WithOptions(check.Options{MaxHorizon: 7, NoSymmetry: noSym}), check.WithPager(pg))
		if err != nil {
			t.Fatal(err)
		}
		for a.Horizon() < 6 {
			if _, err := a.Step(context.Background()); err != nil {
				t.Fatalf("%s: step to horizon %d: %v", group, a.Horizon()+1, err)
			}
			if a.Horizon() < 5 {
				continue
			}
			if err := Save(dir, a); err != nil {
				t.Fatalf("%s: save at horizon %d: %v", group, a.Horizon(), err)
			}
			got := map[string]string{
				"interner": hashFiles(t, internerPath(dir)),
				"pages":    hashFiles(t, pageFiles(t, dir)...),
			}
			for _, kind := range []string{"interner", "pages"} {
				key := fmt.Sprintf("%s/%d/%s", group, a.Horizon(), kind)
				if got[kind] != want[key] {
					t.Errorf("%s: sha256 %s, want %s", key, got[kind], want[key])
				}
			}
		}
	}
}

// pageFiles lists the checkpoint's page files in name order.
func pageFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(PagesDir(dir), "*.page"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no page files in %s (%v)", PagesDir(dir), err)
	}
	sort.Strings(files)
	return files
}

// hashFiles returns the SHA-256 of the files' base names and contents, in
// the order given.
func hashFiles(t *testing.T, paths ...string) string {
	t.Helper()
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestManifestBytesPinned pins the bytes encodeManifest writes for
// lossy-star-4 saved at horizon 5, under its quotient and without
// symmetry: the manifest Save wrote, and encodeManifest re-run on its
// decoded fields. The hashes must not move unless the manifest format is
// changed on purpose, with a manifestVersion bump.
func TestManifestBytesPinned(t *testing.T) {
	want := map[string]string{
		"S3":      "995db7f1d85563e5842fbb6a140dea4bc09ab77c5d2c64346114ec4ca3606697",
		"trivial": "9c632d38f9a62d24d4ad37dd94177ab6f451f34f303242e4e68f3ddc01ef086c",
	}
	for _, noSym := range []bool{false, true} {
		group := "S3"
		if noSym {
			group = "trivial"
		}
		dir := filepath.Join(t.TempDir(), "ckpt")
		pg, err := Fresh(dir, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		a, err := check.NewAnalyzer(advgen.LossyStar4(),
			check.WithOptions(check.Options{MaxHorizon: 7, NoSymmetry: noSym}), check.WithPager(pg))
		if err != nil {
			t.Fatal(err)
		}
		for a.Horizon() < 5 {
			if _, err := a.Step(context.Background()); err != nil {
				t.Fatalf("%s: step to horizon %d: %v", group, a.Horizon()+1, err)
			}
		}
		if err := Save(dir, a); err != nil {
			t.Fatalf("%s: save: %v", group, err)
		}
		data, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		fp, blobLen, blobCRC, snap, err := decodeManifest(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", group, err)
		}
		meta, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{"saved": data, "encoded": encodeManifest(fp, blobLen, blobCRC, meta)} {
			sum := sha256.Sum256(b)
			if h := hex.EncodeToString(sum[:]); h != want[group] {
				t.Errorf("%s/%s: sha256 %s, want %s\n%s", group, name, h, want[group], b)
			}
		}
	}
}
