// Command topoconvet runs the repo's custom analyzer suite (internal/lint):
// atomicwrite, quarantine, ctxflow, allocfree and facadesync — the
// project's durability, hygiene, cancellation, hot-path and "facade only
// re-exports" invariants as compile-time checks.
//
// It speaks two protocols:
//
//	topoconvet ./...                  # standalone, via go list
//	go vet -vettool=$(which topoconvet) ./...   # vet backend, via vet.cfg
//
// Every run checks all five analyzers; the tool takes no flags. Exit
// codes follow vet convention: 0 clean, 1 failure, 2 findings.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"topocon/internal/lint"
)

// selfID hashes the running executable so the go command's vet result
// cache is invalidated whenever the tool is rebuilt.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func main() {
	args := os.Args[1:]
	// The go command's vettool handshake: `-flags` asks for the flag set
	// as JSON; a `-V` probe asks for a version line.
	if len(args) == 1 && args[0] == "-flags" {
		if err := lint.PrintFlags(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "topoconvet: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) >= 1 && strings.HasPrefix(args[0], "-V") {
		// The go command derives the vet cache key from this line; the
		// content hash of the executable makes rebuilt tools miss the cache.
		fmt.Printf("topoconvet version devel buildID=%s\n", selfID())
		return
	}

	fs := flag.NewFlagSet("topoconvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: topoconvet [packages]\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which topoconvet) [packages]\n")
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
	analyzers := lint.All()

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		// Invoked by `go vet` on one package unit.
		os.Exit(lint.RunUnit(rest[0], analyzers, os.Stderr))
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	diags, err := lint.LoadAndRun(".", rest, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topoconvet: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
