package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
)

// vetConfig mirrors the JSON file the go command hands a -vettool backend
// for each package unit (see cmd/go/internal/work's buildVetConfig). Only
// the fields this tool consumes are declared.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ModulePath   string
	GoVersion    string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool

	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// RunUnit analyzes one `go vet` package unit described by the vet.cfg at
// cfgPath, printing diagnostics to stderr in the file:line:col form the
// go command expects. The exit code follows the vet convention: 0 clean,
// 1 operational failure, 2 findings.
func RunUnit(cfgPath string, analyzers []*Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "topoconvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "topoconvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// This suite carries no cross-package facts, so a unit that exists only
	// to produce facts for importers has nothing to do — and a test-only
	// unit (the pxtest variant, every file a _test.go) has nothing either.
	if cfg.VetxOnly || !hasNonTestFile(cfg.GoFiles) {
		writeVetx(cfg)
		return 0
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		return file, ok
	})
	pkg, err := typecheckFiles(fset, cfg.ImportPath, absFiles(cfg.Dir, cfg.GoFiles), imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(cfg)
			return 0
		}
		fmt.Fprintf(stderr, "topoconvet: %v\n", err)
		return 1
	}
	diags := Run(analyzers, pkg)
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s: %s\n", d.Pos, d.Message)
		}
		return 2
	}
	writeVetx(cfg)
	return 0
}

// writeVetx records the (empty) facts output so the go command can cache
// the clean result; failure to write only costs cache hits.
func writeVetx(cfg vetConfig) {
	if cfg.VetxOutput != "" {
		_ = os.WriteFile(cfg.VetxOutput, []byte("topoconvet\n"), 0o666)
	}
}

func hasNonTestFile(files []string) bool {
	for _, f := range files {
		if !isTestFile(f) {
			return true
		}
	}
	return false
}

// PrintFlags answers the `-flags` probe, with which the go command asks
// a vettool for its flag set before it builds the command line: the
// suite has none.
func PrintFlags(w io.Writer) error {
	_, err := fmt.Fprintln(w, "[]")
	return err
}
