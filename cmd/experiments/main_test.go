package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputMatchesGolden runs every experiment and compares the markdown
// with testdata/experiments.golden, so a change that moves any table,
// verdict or certificate shows here. After an intended change, regenerate
// the file with
//
//	go run ./cmd/experiments > cmd/experiments/testdata/experiments.golden
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "experiments.md")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	ctx = t.Context()
	func() {
		defer func() { os.Stdout = stdout }()
		run("")
	}()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from testdata/experiments.golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
