package lint

import (
	"go/ast"
	"strings"
)

// FacadeSync keeps the root facade package a pure re-export layer: every
// exported symbol the facade declares must reference at least one internal
// symbol. A facade-local declaration — a constant, variable, type or
// function defined in the facade itself — is reported, since the facade
// only re-exports. (A facade alias whose target was renamed away needs no
// check here: the facade would not compile.)
//
// The analyzer only runs on the module root package ("topocon").
var FacadeSync = &Analyzer{
	Name: "facadesync",
	Doc:  "every exported facade symbol must re-export an internal symbol",
	Run:  runFacadeSync,
}

func runFacadeSync(pass *Pass) {
	if pass.Path != "topocon" {
		return
	}
	internalPrefix := pass.Path + "/internal/"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Recv == nil && !refsInternal(pass, d, internalPrefix) {
					pass.Reportf(d.Name.Pos(), "facade symbol %s does not reference any internal symbol; the facade only re-exports", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !refsInternal(pass, s, internalPrefix) {
							pass.Reportf(s.Name.Pos(), "facade symbol %s does not reference any internal symbol; the facade only re-exports", s.Name.Name)
						}
					case *ast.ValueSpec:
						exported := false
						for _, name := range s.Names {
							if name.IsExported() {
								exported = true
							}
						}
						if exported && !refsInternal(pass, s, internalPrefix) {
							pass.Reportf(s.Names[0].Pos(), "facade symbol %s does not reference any internal symbol; the facade only re-exports", s.Names[0].Name)
						}
					}
				}
			}
		}
	}
}

// refsInternal reports whether any identifier under n resolves to a
// symbol in the internal tree.
func refsInternal(pass *Pass, n ast.Node, internalPrefix string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return !found
		}
		if obj := pass.Info.Uses[id]; obj != nil && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), internalPrefix) {
			found = true
		}
		return !found
	})
	return found
}
