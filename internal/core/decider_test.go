package core_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"couchgo/internal/cmap"
	"couchgo/internal/events"
)

// TestDeciderTransitions walks one decider through the topology
// transitions it can make, once per control plane, with one table: the
// nodes of an in-process cluster, and three processes' worth of
// transport.StartNode. Both must publish the same sequence of maps
// (chains equal under the sorted-node-name bijection, the same Rev
// steps), and every member still in service must reconcile exactly the
// vBuckets a map changed — none at all when nothing did. The applier
// reconciles each of its nodes once per chain it found changed and
// journals that count, which is what the table reads.
//
// Two vBuckets, one replica, nodes A < B < C: vb0 = [A B], vb1 = [B C].
func TestDeciderTransitions(t *testing.T) {
	const A, B, C, none = 0, 1, 2, -1
	steps := []struct {
		name    string
		fail    int       // node to fail over, none for the formation row
		chains  [2][2]int // the map the step must leave, as node indexes
		rev     int64     // Rev step from the previous row
		changed int       // chains the step changes: reconciles per serving member
	}{
		{"form", none, [2][2]int{{A, B}, {B, C}}, 0, 0},
		{"fail a replica holder", C, [2][2]int{{A, B}, {B, none}}, 1, 1},
		{"fail an active holder", A, [2][2]int{{B, none}, {B, none}}, 1, 1},
		{"repeat the same failover", A, [2][2]int{{B, none}, {B, none}}, 0, 0},
		{"all copies lost", B, [2][2]int{{none, none}, {none, none}}, 1, 2},
	}

	sequences := map[string][]string{}
	for _, plane := range []struct {
		name string
		mk   func(*testing.T, int) *harness
	}{{"in-process", newLoopbackHarness}, {"sockets", newSocketHarness}} {
		t.Run(plane.name, func(t *testing.T) {
			h := plane.mk(t, 1)
			decided := func() *cmap.Map {
				m, err := h.clusters[h.decider].BucketMap(bucket)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			// reconciled sums the chains member i's applier has found
			// changed since the journal stood at seq.
			reconciled := func(i int, seq uint64) (n int) {
				for _, e := range events.Default.Events(events.Filter{SinceSeq: seq}) {
					if e.Msg == "applied cluster map" && e.Bucket == bucket && e.Node == string(h.self[i]) {
						k, _ := strconv.Atoi(e.Fields["changed"])
						n += k
					}
				}
				return n
			}
			prev := decided()
			for _, step := range steps {
				before := events.Default.LastSeq()
				if step.fail != none {
					if err := h.fail(step.fail); err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
				}
				m := decided()
				var got [2][2]int
				for vb := range got {
					got[vb] = [2]int{h.index(m.Active(vb)), none}
					if r := m.Replicas(vb); len(r) > 0 {
						got[vb][1] = h.index(r[0])
					}
				}
				if got != step.chains || m.Rev-prev.Rev != step.rev {
					t.Fatalf("%s: chains %v after a Rev step of %d, want %v after %d", step.name, got, m.Rev-prev.Rev, step.chains, step.rev)
				}
				if step.rev == 0 && m != prev {
					t.Errorf("%s: an unchanged topology was minted again", step.name)
				}
				sequences[plane.name] = append(sequences[plane.name], fmt.Sprint(got, m.Rev-prev.Rev))
				prev = m

				// Every serving member arrives at the map having reconciled
				// the changed vBuckets and no others; a member out of
				// service reconciles nothing.
				eventually(t, step.name, func() error {
					for i, id := range h.ids {
						want := step.changed
						if !h.serving(i) {
							want = 0
						} else if mm, _ := h.clusters[i].BucketMap(bucket); mm.Rev != m.Rev {
							return fmt.Errorf("%s holds map rev %d, want %d", id, mm.Rev, m.Rev)
						}
						if n := reconciled(i, before); n != want {
							return fmt.Errorf("%s reconciled %d vBuckets, want %d", id, n, want)
						}
					}
					return nil
				})
				// Handing a member the map it already holds is a no-op.
				after := events.Default.LastSeq()
				for i := range h.ids {
					if err := h.clusters[i].ApplyMap(bucket, m, h.self[i], nil); err != nil {
						t.Fatal(err)
					}
					if n := reconciled(i, after); n != 0 {
						t.Errorf("%s: re-applying map rev %d reconciled %d vBuckets", step.name, m.Rev, n)
					}
				}
			}
		})
	}
	if !slices.Equal(sequences["in-process"], sequences["sockets"]) {
		t.Errorf("the planes published different maps:\n in-process %v\n sockets    %v", sequences["in-process"], sequences["sockets"])
	}
}

// TestOnlyTheDeciderMintsMaps: cmap's functions that return a new
// *Map — formation, failover scrub, chain step, whatever is added next
// — may be called by non-test code from internal/core/decider.go only.
// A second caller is a second decider.
func TestOnlyTheDeciderMintsMaps(t *testing.T) {
	fset := token.NewFileSet()
	cmapFile, err := parser.ParseFile(fset, "../cmap/cmap.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	minting := map[string]bool{}
	for _, decl := range cmapFile.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Type.Results == nil || !fn.Name.IsExported() || fn.Name.Name == "Clone" {
			continue
		}
		for _, res := range fn.Type.Results.List {
			if star, ok := res.Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Map" {
					minting[fn.Name.Name] = true
				}
			}
		}
	}
	for _, name := range []string{"BuildBalanced", "FailoverNode", "WithChain"} {
		if !minting[name] {
			t.Fatalf("cmap.%s not recognised as map-minting (found %v)", name, minting)
		}
	}

	const root = "../.."
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") || rel == "internal/cmap" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == "internal/core/decider.go" {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && minting[sel.Sel.Name] {
					t.Errorf("%s: calls map-minting cmap.%s outside the decider", fset.Position(call.Pos()), sel.Sel.Name)
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

// TestRoutingReadsTakeNoLock: what a KV op reads on its way to
// vbucket.Do is published state (published.go), so each function below
// is loads and an index: its body calls no Lock or RLock and builds no
// composite literal (the conn a loopback Do runs on is handed out, not
// made). A row is (receiver, method); the rule is "the body of F
// contains no call of {Lock, RLock} and no composite literal", written
// as a table so that ROADMAP item 6's one rule table can take it over.
func TestRoutingReadsTakeNoLock(t *testing.T) {
	rows := []struct{ recv, method string }{
		{"Decider", "Map"},
		{"Cluster", "Node"},
		{"Cluster", "BucketMap"},
		{"Cluster", "NodeVB"},
		{"Cluster", "LoopbackConn"},
		{"Node", "Alive"},
		{"Node", "bucket"},
		{"Node", "conn"},
		{"Node", "kvVB"},
		{"nodeBucket", "vb"},
		{"loopbackConn", "Do"},
		{"loopbackRouter", "BucketMap"},
		{"loopbackRouter", "Conn"},
		{"published", "all"},
		{"published", "get"},
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[[2]string]*ast.BlockStmt{}
	for _, file := range pkgs["core"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			// The receiver's type name, through a pointer and type
			// parameters.
			ast.Inspect(fn.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					bodies[[2]string{id.Name, fn.Name.Name}] = fn.Body
					return false
				}
				return true
			})
		}
	}
	for _, row := range rows {
		body := bodies[[2]string{row.recv, row.method}]
		if body == nil {
			t.Errorf("%s.%s: no such method (a renamed row checks nothing)", row.recv, row.method)
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t.Errorf("%s.%s builds a composite literal on the op path", row.recv, row.method)
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
					t.Errorf("%s.%s takes a lock on the op path", row.recv, row.method)
				}
			}
			return true
		})
	}
}
