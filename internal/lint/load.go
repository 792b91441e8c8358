package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
}

// LoadPatterns resolves package patterns with `go list -export -deps`
// (run in dir) and type-checks every matched package from source, with all
// imports satisfied from the build cache's gc export data — no network, no
// source re-traversal of dependencies. This is the standalone and in-test
// entry point; `go vet` invocations go through RunUnit instead, which gets
// the same information from the vet.cfg file.
func LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,CgoFiles,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		file, ok := exports[path]
		return file, ok
	})
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 || len(t.CgoFiles) > 0 {
			continue
		}
		pkg, err := typecheckFiles(fset, t.ImportPath, absFiles(t.Dir, t.GoFiles), imp, "")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadAndRun loads the patterns and runs the analyzers over every package.
func LoadAndRun(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := LoadPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, Run(analyzers, pkg)...)
	}
	return diags, nil
}

// exportImporter wraps the standard gc importer with a resolver mapping
// import paths to export-data files (from go list or a vet.cfg).
func exportImporter(fset *token.FileSet, resolve func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := resolve(path)
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheckFiles parses and type-checks one package unit. goFiles may
// include _test.go files (the vet ptest variant); they take part in type
// checking but are excluded from Package.Files, so analyzers never see
// them. goVersion, when non-empty, pins the language version ("go1.24").
func typecheckFiles(fset *token.FileSet, path string, goFiles []string, imp types.Importer, goVersion string) (*Package, error) {
	var all, nonTest []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		all = append(all, f)
		if !isTestFile(gf) {
			nonTest = append(nonTest, f)
		}
	}
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	info := newInfo()
	tpkg, err := conf.Check(path, fset, all, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		Fset:     fset,
		Path:     path,
		Files:    nonTest,
		AllFiles: all,
		Types:    tpkg,
		Info:     info,
	}, nil
}

// absFiles joins relative file names onto the package directory.
func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}
