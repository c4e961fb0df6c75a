package vbucket

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"couchgo/internal/cache"
	"couchgo/internal/memcproto"
)

// TestOneExecutorDownToTheCache guards the one executor against
// regrowth: an opcode decides which cache.HashTable method runs in one
// function only, Do, with one arm per op-table row, and internal/core
// switches on no opcode at all. (That a *VBucket has no per-op method
// beside Do is a row of couchvet's structure table.)
func TestOneExecutorDownToTheCache(t *testing.T) {
	var tableMethods []string
	for i, ht := 0, reflect.TypeOf(&cache.HashTable{}); i < ht.NumMethod(); i++ {
		tableMethods = append(tableMethods, ht.Method(i).Name)
	}
	// callsTable reports a `<x>.Table.<HashTable method>(…)` under n.
	callsTable := func(n ast.Node) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(tableMethods, sel.Sel.Name) {
					if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "Table" {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}

	const root = "../.."
	arms := map[string]int{} // "file:func" -> opcode cases that call the table
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			// bench/ is its own module and may not be edited.
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") || rel == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok || !slices.ContainsFunc(cc.List, func(e ast.Expr) bool { return strings.HasPrefix(types.ExprString(e), "memcproto.Op") }) {
					return true
				}
				if filepath.ToSlash(filepath.Dir(rel)) == "internal/core" {
					t.Errorf("%s: internal/core switches on an opcode; the executor is vbucket.Do", fset.Position(cc.Pos()))
				}
				for _, stmt := range cc.Body {
					if callsTable(stmt) {
						arms[filepath.ToSlash(rel)+":"+fn.Name.Name]++
						break
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := arms["internal/vbucket/op.go:Do"]; len(arms) != 1 || n != len(memcproto.KVOps()) {
		t.Errorf("opcode cases calling cache.HashTable, by function: %v; want only vbucket.Do with one per table row (%d)", arms, len(memcproto.KVOps()))
	}
}
