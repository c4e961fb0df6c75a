package gsi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneIndexTree: in every package that holds or scans an index tree,
// one function builds a tree key and one turns a span into byte bounds,
// recognised by signature. Which struct declares the span's fields and
// who reads them are rows of couchvet's structure table.
func TestOneIndexTree(t *testing.T) {
	fset := token.NewFileSet()
	var keyBuilders, boundBuilders []string
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
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				who := pkg + "." + fn.Name.Name
				byteResults, stringParam := 0, false
				if fn.Type.Results != nil {
					for _, f := range fn.Type.Results.List {
						if types.ExprString(f.Type) == "[]byte" {
							byteResults += max(1, len(f.Names))
						}
					}
				}
				for _, f := range fn.Type.Params.List {
					stringParam = stringParam || types.ExprString(f.Type) == "string"
				}
				encodes := false
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if x, ok := n.(*ast.CallExpr); ok {
						if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "EncodeKey" {
							encodes = true
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
			}
		}
	}
	if !slices.Equal(keyBuilders, []string{"gsi.TreeKey"}) {
		t.Errorf("functions that build a tree key (EncodeKey and a document ID into one []byte): %v, want gsi.TreeKey alone", keyBuilders)
	}
	if !slices.Equal(boundBuilders, []string{"gsi.scanBounds"}) {
		t.Errorf("functions that turn a span into byte bounds (two []byte results): %v, want gsi.scanBounds alone", boundBuilders)
	}
}
