package lint

import (
	"go/ast"
	"strings"
)

// Quarantine enforces the repo's data-hygiene invariant: corrupt or
// leftover data is renamed aside for inspection, never deleted. Deletion
// is legal only inside helpers whose name declares the intent ("quarantine"
// or "retire" — e.g. Service.retireJobDoc), or under an
// explicit //topocon:allow quarantine directive with a justification.
// Command mains are exempt: a CLI deleting its own scratch output is not a
// record-hygiene question.
var Quarantine = &Analyzer{
	Name: "quarantine",
	Doc:  "flag os.Remove/os.RemoveAll outside quarantine/retire helpers; bad data is renamed aside, never deleted",
	Run:  runQuarantine,
}

func runQuarantine(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if name := strings.ToLower(fd.Name.Name); strings.Contains(name, "quarantine") || strings.Contains(name, "retire") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch {
				case isPkgFunc(pass.Info, call, "os", "Remove"):
					pass.Reportf(call.Pos(), "os.Remove deletes data; quarantine it instead (rename aside) or justify with //topocon:allow quarantine")
				case isPkgFunc(pass.Info, call, "os", "RemoveAll"):
					pass.Reportf(call.Pos(), "os.RemoveAll deletes data; quarantine it instead (rename aside) or justify with //topocon:allow quarantine")
				}
				return true
			})
		}
	}
}
