package dcp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneQueuePerStream (go/parser, every non-test file under internal/
// and cmd/): a mutation crosses one queue between Publish and its
// consumer, and the consumer's own goroutine pulls it. No channel of
// mutations, no relay goroutine and no channel-length peek has come back
// under any of its old names.
func TestOneQueuePerStream(t *testing.T) {
	fset := token.NewFileSet()
	var methods []string
	consumers := 0
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			pkg := file.Name.Name
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ChanType:
					if isMutation(x.Value, pkg) {
						t.Errorf("%s: a chan of dcp.Mutation: consumers pull batches with MutationStream.Next", fset.Position(x.Pos()))
					}
				case *ast.GoStmt:
					if pkg == "dcp" {
						t.Errorf("%s: internal/dcp starts no goroutine: a consumer pulls its own stream", fset.Position(x.Pos()))
					}
				case *ast.CallExpr:
					// len(x.C()): a batch boundary recovered by peeking.
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "len" && len(x.Args) == 1 {
						if call, ok := x.Args[0].(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
								t.Errorf("%s: len(….C()): a batch is what Next returned", fset.Position(x.Pos()))
							}
						}
					}
				case *ast.TypeSpec:
					if it, ok := x.Type.(*ast.InterfaceType); ok && pkg == "dcp" && x.Name.Name == "MutationStream" {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								methods = append(methods, id.Name)
							}
						}
					}
				case *ast.FuncDecl:
					recv := receiver(x)
					gone := pkg == "dcp" && recv == "Stream" && (x.Name.Name == "pump" || x.Name.Name == "send" || x.Name.Name == "kick") ||
						pkg == "transport" && recv == "RemoteStream" && x.Name.Name == "readLoop" ||
						pkg == "core" && recv == "replicaLink" && x.Name.Name == "applyRun"
					if gone {
						t.Errorf("%s: func (%s) %s is gone: one queue per stream, pulled by its consumer", fset.Position(x.Pos()), recv, x.Name.Name)
					}
					// The four consumer loops run on one goroutine each. (A
					// peek loop like applyRun's select … default cannot come
					// back without the chan of mutations refused above.)
					switch pkg + "." + recv + "." + x.Name.Name {
					case "feed.Feed.drain", "core.nodeBucket.runLink", "core.replicaLink.apply",
						"transport.session.pumpStream", "gsi.Projector.backfillIndex":
						consumers++
						ast.Inspect(x, func(n ast.Node) bool {
							if g, ok := n.(*ast.GoStmt); ok {
								t.Errorf("%s: %s.%s starts a goroutine: a stream's consumer is one goroutine", fset.Position(g.Pos()), recv, x.Name.Name)
							}
							return true
						})
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
	if consumers != 5 {
		t.Errorf("found %d of the 5 consumer loops by name; update the list with the rename", consumers)
	}
	sort.Strings(methods)
	if got := strings.Join(methods, " "); got != "Close Next StreamUUID" {
		t.Errorf("MutationStream's methods are %q, want exactly Close, Next and StreamUUID", got)
	}
}

// isMutation reports whether e names dcp.Mutation from package pkg.
func isMutation(e ast.Expr, pkg string) bool {
	if id, ok := e.(*ast.Ident); ok {
		return pkg == "dcp" && id.Name == "Mutation"
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Mutation" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "dcp"
}

// receiver returns the name of fn's receiver type, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	e := fn.Recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
