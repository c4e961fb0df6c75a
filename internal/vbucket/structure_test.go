package vbucket

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"couchgo/internal/memcproto"
)

// methodsOf parses dir's non-test files for the exported methods of
// *recv.
func methodsOf(t *testing.T, dir, recv string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !fn.Name.IsExported() {
					continue
				}
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == recv {
						out = append(out, fn.Name.Name)
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// isOpcodeCase reports whether the clause is a `case memcproto.Op…:`.
func isOpcodeCase(cc *ast.CaseClause) bool {
	for _, e := range cc.List {
		if sel, ok := e.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Op") {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "memcproto" {
				return true
			}
		}
	}
	return false
}

// TestOneExecutorDownToTheCache guards the shape PR 22 reached against
// regrowth: an opcode decides which cache.HashTable method runs in one
// function only, Do; internal/core switches on no opcode at all; and a
// *VBucket exposes no per-op method beside Do and its two spellings
// (the rest of the list is lifecycle, durability and replication).
func TestOneExecutorDownToTheCache(t *testing.T) {
	tableMethods := methodsOf(t, "../cache", "HashTable")
	if !slices.Contains(tableMethods, "SubdocCounter") || !slices.Contains(tableMethods, "GetAndLock") {
		t.Fatalf("lost track of cache.HashTable's methods: %v", tableMethods)
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
				if !ok || !isOpcodeCase(cc) {
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

	want := []string{
		"Do", "Get", "Set", // the executor and its two spellings
		"WarmUp", "State", "SetState", "Close", // lifecycle
		"Producer", "HighSeqno", "PersistedSeqno", "QueueDepth", // what the node reads
		"ApplyReplica", "AckReplica", "SetReplicaSet", "ReplicationAwaited", // replication
		"WaitPersist", "WaitReplicas", "DrainDisk", // durability
	}
	slices.Sort(want)
	if got := methodsOf(t, ".", "VBucket"); !slices.Equal(got, want) {
		t.Errorf("exported methods of *VBucket:\n got  %v\n want %v\na new KV op is a table row and an arm of Do, not a method", got, want)
	}
}
