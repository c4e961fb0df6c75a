package n1ql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneEvaluatorOverSlots keeps what the slot rows replaced from
// growing back: Context holds no map but the query parameters, and
// nothing under internal/ builds a Context field from a map literal.
// (One way to run an expression is rows of couchvet's structure table.)
func TestOneEvaluatorOverSlots(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok && x.Name.Name == "Context" && file.Name.Name == "n1ql" {
					for _, f := range st.Fields.List {
						if _, isMap := f.Type.(*ast.MapType); isMap && (len(f.Names) != 1 || f.Names[0].Name != "Params") {
							t.Errorf("%s: Context has a map-typed field besides Params", fset.Position(f.Pos()))
						}
					}
				}
			case *ast.CompositeLit:
				if typ := types.ExprString(x.Type); typ != "Context" && !strings.HasSuffix(typ, ".Context") {
					return true
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok && strings.HasPrefix(types.ExprString(kv.Value), "map[") {
						t.Errorf("%s: a Context field is built from a map literal", fset.Position(kv.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
