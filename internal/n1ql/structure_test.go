package n1ql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneEvaluatorOverSlots keeps what the slot rows replaced from
// growing back: Context holds no map but the query parameters, nothing
// under internal/ builds a Context field from a map literal, and an
// expression has one way to run: every node type's methods are String
// and eval, Expr asks for just those, and Eval is the package's only
// exported evaluator.
func TestOneEvaluatorOverSlots(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string][]string{} // receiver type -> method names
	var evaluators, exprMethods []string
	for _, file := range pkgs["n1ql"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && strings.Contains(d.Name.Name, "Eval") {
					evaluators = append(evaluators, d.Name.Name)
				}
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name := recv.(*ast.Ident).Name
					methods[name] = append(methods[name], d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					switch typ := ts.Type.(type) {
					case *ast.StructType:
						if ts.Name.Name != "Context" {
							continue
						}
						for _, f := range typ.Fields.List {
							if _, isMap := f.Type.(*ast.MapType); isMap && (len(f.Names) != 1 || f.Names[0].Name != "Params") {
								t.Errorf("%s: Context has a map-typed field besides Params", fset.Position(f.Pos()))
							}
						}
					case *ast.InterfaceType:
						if ts.Name.Name == "Expr" {
							for _, m := range typ.Methods.List {
								exprMethods = append(exprMethods, m.Names[0].Name)
							}
						}
					}
				}
			}
		}
	}
	nodes := 0
	for typ, names := range methods {
		if !slices.Contains(names, "eval") {
			continue
		}
		nodes++
		slices.Sort(names)
		if !slices.Equal(names, []string{"String", "eval"}) {
			t.Errorf("node type %s has methods %v, want String and eval only", typ, names)
		}
	}
	if nodes < 15 {
		t.Errorf("found only %d node types", nodes)
	}
	if slices.Sort(exprMethods); !slices.Equal(exprMethods, []string{"String", "eval"}) {
		t.Errorf("Expr asks for %v, want String and eval", exprMethods)
	}
	if !slices.Equal(evaluators, []string{"Eval"}) {
		t.Errorf("exported evaluators %v, want Eval alone", evaluators)
	}

	const root = ".."
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			typ := lit.Type
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); !ok || id.Name != "Context" {
				return true
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := kv.Value.(*ast.CompositeLit); ok {
						if _, isMap := v.Type.(*ast.MapType); isMap {
							t.Errorf("%s: a Context field is built from a map literal", fset.Position(kv.Pos()))
						}
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
