package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DroppedError flags silently discarded error returns — `_ = f()`,
// bare-call statements, `go f()`, and `defer f()` where f returns an
// error — inside the packages where a swallowed error corrupts or
// loses data: the storage engine's compaction/recovery paths, the
// cache's eviction/flush paths, the feed layer's stream lifecycle, and
// the GSI partitions' maintenance log.
// Elsewhere, discarding an error is often a reasonable judgment call;
// in these packages it must be propagated, logged, or counted.
var DroppedError = &Analyzer{
	Name: "droppederror",
	Doc:  "discarded error return in an error-critical package",
	Run:  runDroppedError,
}

// droppedErrorPackages is the error-critical package set the rule
// applies to.
var droppedErrorPackages = map[string]bool{
	ModulePath + "/internal/storage": true,
	ModulePath + "/internal/cache":   true,
	ModulePath + "/internal/feed":    true,
	ModulePath + "/internal/gsi":     true,
}

func runDroppedError(pkg *Package) []Diagnostic {
	if !droppedErrorPackages[pkg.Path] {
		return nil
	}
	var diags []Diagnostic
	report := func(n ast.Node, form string) {
		diags = append(diags, Diagnostic{
			Pos:     pkg.pos(n.Pos()),
			Rule:    "droppederror",
			Message: fmt.Sprintf("%s discards an error return", form),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && returnsError(pkg, call) {
					report(n, "bare call")
				}
			case *ast.DeferStmt:
				if returnsError(pkg, n.Call) {
					report(n, "deferred call")
				}
			case *ast.GoStmt:
				if returnsError(pkg, n.Call) {
					report(n, "go statement")
				}
			case *ast.AssignStmt:
				diags = append(diags, blankErrorAssigns(pkg, n)...)
			}
			return true
		})
	}
	return diags
}

// blankErrorAssigns finds `_` targets that receive an error value in
// an assignment, covering both 1:1 assignments and multi-value calls.
func blankErrorAssigns(pkg *Package, as *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node) {
		diags = append(diags, Diagnostic{
			Pos:     pkg.pos(n.Pos()),
			Rule:    "droppederror",
			Message: "error assigned to _",
		})
	}
	isBlank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && isErrorType(pkg.Info.TypeOf(as.Rhs[i])) {
				report(lhs)
			}
		}
		return diags
	}
	// Multi-value: x, _ := f()
	if len(as.Rhs) != 1 {
		return diags
	}
	tv, ok := pkg.Info.Types[as.Rhs[0]]
	if !ok {
		return diags
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != len(as.Lhs) {
		return diags
	}
	for i, lhs := range as.Lhs {
		if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
			report(lhs)
		}
	}
	return diags
}
