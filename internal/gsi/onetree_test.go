package gsi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// isBytes reports whether a type expression is []byte.
func isBytes(e ast.Expr) bool {
	arr, ok := e.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	id, ok := arr.Elt.(*ast.Ident)
	return ok && id.Name == "byte"
}

// TestOneIndexTree is the structural gate on the index tree's sharing,
// over the non-test files of every package that holds or scans one:
// one function builds a tree key, one turns a span into byte bounds,
// one struct declares the span's fields, and nothing else interprets
// them — so a second key format, a private span rule or a field-for-
// field copy of the scan request cannot come back unnoticed.
func TestOneIndexTree(t *testing.T) {
	fset := token.NewFileSet()
	var keyBuilders, boundBuilders, spanStructs, spanReaders []string
	for _, pkg := range []string{"gsi", "views", "analytics", "core", "executor"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: %v (%d files)", pkg, err, len(files))
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if id.Name == "LowIncl" {
								spanStructs = append(spanStructs, pkg+"."+ts.Name.Name)
							}
						}
					}
				}
				return true
			})
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				who := pkg + "." + fn.Name.Name
				byteResults, stringParam := 0, false
				if fn.Type.Results != nil {
					for _, f := range fn.Type.Results.List {
						if isBytes(f.Type) {
							byteResults += max(1, len(f.Names))
						}
					}
				}
				for _, f := range fn.Type.Params.List {
					if id, ok := f.Type.(*ast.Ident); ok && id.Name == "string" {
						stringParam = true
					}
				}
				encodes, readsSpan := false, false
				assigned := map[ast.Expr]bool{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							assigned[lhs] = true
						}
					case *ast.CallExpr:
						if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "EncodeKey" {
							encodes = true
						}
					case *ast.SelectorExpr:
						if x.Sel.Name == "LowIncl" && !assigned[x] {
							readsSpan = true
						}
					}
					return true
				})
				if byteResults == 1 && stringParam && encodes {
					keyBuilders = append(keyBuilders, who)
				}
				if byteResults == 2 {
					boundBuilders = append(boundBuilders, who)
				}
				if readsSpan {
					spanReaders = append(spanReaders, who)
				}
			}
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"functions that build a tree key (EncodeKey and a document ID into one []byte)", keyBuilders, []string{"gsi.TreeKey"}},
		{"functions that turn a span into byte bounds (two []byte results)", boundBuilders, []string{"gsi.scanBounds"}},
		{"struct types that declare a LowIncl field", spanStructs, []string{"gsi.ScanOptions"}},
		// executor.evalSpan is the one translation: the plan's span holds
		// expressions (planner.Span), the request their values. Any other
		// reader interprets the span itself or copies the request.
		{"functions that read a LowIncl", spanReaders, []string{"gsi.scanBounds", "executor.evalSpan"}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %v, want exactly %v", c.what, c.got, c.want)
		}
	}
}
