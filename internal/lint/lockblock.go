package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// LockBlock flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, select statements,
// ranging over a channel, socket writes (a Write/WriteTo on anything
// that is or implements net.Conn — a slow peer must never stall a
// lock holder; the transport layer's writer-goroutine loops own their
// sockets lock-free and stay clean by construction), and calls into
// other in-repo internal packages (which may themselves take locks or
// block — the deadlock shape the feed/dcp/core triangle is most
// exposed to). The analysis is intra-procedural: a lock is considered
// held from a Lock()/RLock() statement (or for the rest of the
// function after `defer Unlock()`) until a matching
// Unlock()/RUnlock() in the same block sequence.
var LockBlock = &Analyzer{
	Name: "lockblock",
	Doc:  "mutex held across channel operation, select, socket write, or cross-internal-package call",
	Run:  runLockBlock,
}

// lockBlockExempt lists in-repo leaf packages that are safe to call
// with a lock held: they perform no channel operations and call no
// other internal package (storage's only internal dependency is the
// atomic-only metrics package), so they cannot extend a wait-for
// cycle. A deadlock needs a cycle; a leaf cannot close one.
var lockBlockExempt = map[string]bool{
	ModulePath + "/internal/metrics": true, // atomic counters only
	ModulePath + "/internal/value":   true, // pure functions
	ModulePath + "/internal/n1ql":    true, // pure parse/eval
	ModulePath + "/internal/btree":   true, // unsynchronized data structure
	ModulePath + "/internal/cmap":    true, // self-contained vBucket map
	ModulePath + "/internal/storage": true, // leaf; file I/O, no channels
	// events is a leaf (no internal imports) and Publish never blocks:
	// it snapshots subscribers under its own lock, releases it, then
	// delivers with select/default, dropping when a buffer is full.
	ModulePath + "/internal/events": true,
}

type lockWalker struct {
	heldWalker
	diags []Diagnostic
}

func runLockBlock(pkg *Package) []Diagnostic {
	w := &lockWalker{}
	w.heldWalker = heldWalker{
		pkg:   pkg,
		lock:  func(call *ast.CallExpr) (string, lockOp) { return mutexOp(pkg, call) },
		block: w.report,
		expr:  w.checkExpr,
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w.stmts(n.Body.List, heldSet{})
				}
			case *ast.FuncLit: // outside any FuncDecl: a package-level var initializer
				w.stmts(n.Body.List, heldSet{})
			default:
				return true
			}
			return false
		})
	}
	return w.diags
}

// checkExpr scans an expression for blocking operations (receives,
// socket writes, calls into other internal packages).
func (w *lockWalker) checkExpr(e ast.Expr, held heldSet, _ bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lit(n, held)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.report(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if socketWrite(w.pkg, n) {
				w.report(n.Pos(), "socket write", held)
			} else if p := calleePackage(w.pkg, n); internalPackage(p, w.pkg.Path) && !lockBlockExempt[p] {
				w.report(n.Pos(), fmt.Sprintf("call into %s", p), held)
			}
		}
		return true
	})
}

func (w *lockWalker) report(pos token.Pos, what string, held heldSet) {
	if len(held) == 0 {
		return
	}
	w.diags = append(w.diags, Diagnostic{
		Pos:     w.pkg.pos(pos),
		Rule:    "lockblock",
		Message: fmt.Sprintf("%s while holding %s", what, strings.Join(held.sorted(), ", ")),
	})
}
