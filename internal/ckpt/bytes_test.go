package ckpt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
// and 6, under its S₃ quotient and without symmetry. The interner assigns
// IDs in interning order and pages hold those IDs, so any change to the
// order views are interned in, to the key encoding or to the page format
// shows here. The hashes were computed once and must not move unless one
// of those formats is changed on purpose (with a version bump).
func TestCheckpointBytesPinned(t *testing.T) {
	want := map[string]string{
		"S3/5/interner":      "690252f015a100da10fc16cd10cfcf77780d75a4910f474e7b85034bc108e3c8",
		"S3/5/pages":         "349764ecdb7ca6c47f2609f515f178b8db404c25f7009085bafd682ffaba0754",
		"S3/6/interner":      "136260d0972ed72916627691e78716c703adc29113fccd69438122095689b7bc",
		"S3/6/pages":         "2dd33aebbb5bef5c32049fe1f9325a52a47678f769757b1697d1cdc5f7e9bade",
		"trivial/5/interner": "f4f22334aa24777012f8c7a68a9890e0887f1236455174eacfe0be2c35cb81e9",
		"trivial/5/pages":    "15de4130a8e3815f2478c8594c36aa7517573d675f440b0270dce5bbdd92e748",
		"trivial/6/interner": "91a600166a7158bbc01c5fdbf331fafbc5a5c6e28ce7fccd4fccf4c36517055f",
		"trivial/6/pages":    "f10a28582466ea7c59faccc05fb849844c1f43018006a859d11f33faabaf8d18",
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
