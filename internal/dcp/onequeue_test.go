package dcp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOneQueuePerStream (go/parser, non-test files under internal/ and
// cmd/): no consumer recovers a batch boundary by peeking at a channel's
// length, len(x.C()); a batch is what Next returned. The rest of one
// queue per stream is rows of couchvet's structure table.
func TestOneQueuePerStream(t *testing.T) {
	fset, peek := token.NewFileSet(), regexp.MustCompile(`^len\(.*\.C\(\)\)$`)
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if x, ok := n.(*ast.CallExpr); ok && peek.MatchString(types.ExprString(x)) {
					t.Errorf("%s: len(….C()): a batch is what Next returned", fset.Position(x.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
