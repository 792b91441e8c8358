package lint

// The fixture harness: analyzer test packages live GOPATH-style under
// testdata/src/<importpath>/ and annotate expected findings with
//
//	some.Call() // want `regexp` `another regexp`
//
// comments (Go string literals, matched against diagnostic messages on the
// same line). Fixture imports resolve within testdata/src first; anything
// else (os, context, fmt) comes from the build cache's export data.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

type fixtureLoader struct {
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

var (
	loaderOnce sync.Once
	loaderVal  *fixtureLoader
	loaderErr  error
)

// sharedLoader builds one loader per test binary: the `go list -export`
// call that locates std export data is the expensive part, and it is
// identical for every fixture.
func sharedLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	loaderOnce.Do(func() {
		srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			loaderErr = err
			return
		}
		ext, err := externalImports(srcRoot)
		if err != nil {
			loaderErr = err
			return
		}
		exports := map[string]string{}
		if len(ext) > 0 {
			exports, err = ListExports(".", ext)
			if err != nil {
				loaderErr = err
				return
			}
		}
		fset := token.NewFileSet()
		l := &fixtureLoader{
			fset:    fset,
			srcRoot: srcRoot,
			pkgs:    make(map[string]*Package),
			loading: make(map[string]bool),
		}
		l.std = exportImporter(fset, func(path string) (string, bool) {
			file, ok := exports[path]
			return file, ok
		})
		loaderVal = l
	})
	if loaderErr != nil {
		t.Fatalf("building fixture loader: %v", loaderErr)
	}
	return loaderVal
}

// externalImports collects every import of the fixture tree that does not
// itself resolve inside testdata/src.
func externalImports(srcRoot string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(srcRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, perr := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if perr != nil {
			return fmt.Errorf("parsing fixture %s: %w", path, perr)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if st, serr := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(p))); serr == nil && st.IsDir() {
				continue
			}
			seen[p] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Import implements types.Importer over the fixture tree + std.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package (cached).
func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("no fixture sources in %s", dir)
	}
	sort.Strings(matches)
	pkg, err := typecheckFiles(l.fset, path, matches, l, "")
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// runFixture analyzes one fixture package and checks its diagnostics
// against the `// want` expectations of every file under its directory.
func runFixture(t *testing.T, path string, analyzers ...*Analyzer) {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags := Run(analyzers, pkg)
	wants, err := collectWants(filepath.Join(l.srcRoot, filepath.FromSlash(path)))
	if err != nil {
		t.Fatalf("collecting wants for %s: %v", path, err)
	}
	checkExpectations(t, diags, wants)
}

type wantKey struct {
	file string
	line int
}

type wantRx struct {
	re      *regexp.Regexp
	matched bool
}

// wantArgRe extracts the Go string literals following a `// want` marker.
var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses every fixture file under dir and indexes its want
// expectations by (file, line).
func collectWants(dir string) (map[wantKey][]*wantRx, error) {
	wants := make(map[wantKey][]*wantRx)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, lit := range wantArgRe.FindAllString(rest, -1) {
					pattern, uerr := strconv.Unquote(lit)
					if uerr != nil {
						return fmt.Errorf("%s: bad want literal %s: %v", pos, lit, uerr)
					}
					re, rerr := regexp.Compile(pattern)
					if rerr != nil {
						return fmt.Errorf("%s: bad want regexp %q: %v", pos, pattern, rerr)
					}
					wants[key] = append(wants[key], &wantRx{re: re})
				}
			}
		}
		return nil
	})
	return wants, err
}

func checkExpectations(t *testing.T, diags []Diagnostic, wants map[wantKey][]*wantRx) {
	t.Helper()
	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var keys []wantKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, w.re)
			}
		}
	}
}

// ListExports returns the gc export-data files of the named packages and
// every dependency, keyed by import path — the resolver feed for
// exportImporter when the source being type-checked is not part of a
// module (analyzer fixtures).
func ListExports(dir string, pkgs []string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", pkgs, err, stderr.Bytes())
	}
	exports := make(map[string]string)
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
	}
	return exports, nil
}
