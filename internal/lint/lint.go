// Package lint is the repo's custom static-analysis suite: five analyzers
// that turn the invariants the runtime tests pin — durable atomic writes,
// quarantine-never-delete, context threading, allocation-free hot paths,
// facade only re-exports — into compile-time checks. The suite runs
// three ways: standalone over package patterns (via go list, see load.go),
// as a `go vet -vettool=` backend speaking the vet unit protocol (see
// unit.go), and in-process from tests (fixtures and the repo meta-test).
//
// It is deliberately built on the standard library alone (go/ast,
// go/types, go/importer) rather than golang.org/x/tools/go/analysis, so
// the module keeps zero external dependencies; the Analyzer/Pass shapes
// mirror the x/tools API closely enough that a future migration is
// mechanical.
//
// Suppression is explicit and audited: a finding is silenced only by a
//
//	//topocon:allow <analyzer>[,<analyzer>...] -- <justification>
//
// directive with a non-empty justification, placed on the offending line,
// the line above it, or in the enclosing function's doc comment. A
// directive missing the justification is itself a diagnostic, and it does
// not suppress anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects the pass's package and reports
// findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding, resolved to a concrete position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset *token.FileSet
	Path string // import path
	// Files are the non-test source files — what analyzers inspect.
	// AllFiles additionally includes in-package _test.go files when the
	// unit was compiled with them (the go vet ptest variant); they
	// participate in type checking and directive indexing only.
	Files    []*ast.File
	AllFiles []*ast.File
	Types    *types.Package
	Info     *types.Info
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string
	Pkg      *types.Package
	Info     *types.Info

	allow *allowIndex
	out   *[]Diagnostic
}

// Reportf records a finding at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the package and returns the surviving
// diagnostics (allow-directive suppressions already applied), sorted by
// position. Malformed allow directives are reported under the pseudo
// analyzer "directive".
func Run(analyzers []*Analyzer, pkg *Package) []Diagnostic {
	var out []Diagnostic
	allow := buildAllowIndex(pkg.Fset, pkg.AllFiles)
	for _, bad := range allow.malformed {
		out = append(out, Diagnostic{
			Analyzer: "directive",
			Pos:      bad,
			Message:  "malformed //topocon:allow directive: need `//topocon:allow <analyzer>[,...] -- <justification>`",
		})
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			allow:    allow,
			out:      &out,
		}
		a.Run(pass)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowRe matches a well-formed directive: analyzers, then ` -- ` and a
// non-empty justification.
var allowRe = regexp.MustCompile(`^//topocon:allow\s+([A-Za-z0-9_]+(?:,[A-Za-z0-9_]+)*)\s+--\s*(\S.*)$`)

// allowIndex records, per file and line, which analyzers are suppressed.
type allowIndex struct {
	byFile    map[string]map[int]map[string]bool
	malformed []token.Position
}

func (ix *allowIndex) allowed(analyzer string, pos token.Position) bool {
	lines := ix.byFile[pos.Filename]
	if lines == nil {
		return false
	}
	set := lines[pos.Line]
	return set != nil && set[analyzer]
}

func (ix *allowIndex) mark(file string, line int, analyzers []string) {
	lines := ix.byFile[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		ix.byFile[file] = lines
	}
	set := lines[line]
	if set == nil {
		set = make(map[string]bool)
		lines[line] = set
	}
	for _, a := range analyzers {
		set[a] = true
	}
}

// parseAllow returns the suppressed analyzer names for one comment line,
// or (nil, true) for a directive missing its justification.
func parseAllow(text string) (analyzers []string, malformed bool) {
	if !strings.HasPrefix(text, "//topocon:allow") {
		return nil, false
	}
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		return nil, true
	}
	return strings.Split(m[1], ","), false
}

// buildAllowIndex scans every comment for allow directives. A directive on
// line L suppresses findings on L and L+1 (same line or line above the
// offending code); a directive inside a function's doc comment suppresses
// across the whole function.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{byFile: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, bad := parseAllow(c.Text)
				pos := fset.Position(c.Pos())
				if bad {
					ix.malformed = append(ix.malformed, pos)
					continue
				}
				if names != nil {
					ix.mark(pos.Filename, pos.Line, names)
					ix.mark(pos.Filename, pos.Line+1, names)
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				var names []string
				for _, c := range fd.Doc.List {
					if n, bad := parseAllow(c.Text); !bad {
						names = append(names, n...)
					}
				}
				if len(names) > 0 {
					from := fset.Position(fd.Pos())
					to := fset.Position(fd.End())
					for line := from.Line; line <= to.Line; line++ {
						ix.mark(from.Filename, line, names)
					}
				}
			}
		}
	}
	return ix
}

// isTestFile reports whether a file name is a _test.go file.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// pathBase returns the last segment of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// newInfo allocates the types.Info shape every loader uses.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
