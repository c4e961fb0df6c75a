package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// heldSet is the set of locks held at one point of a function body,
// each under the key its rule names it by.
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

func (h heldSet) sorted() []string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heldWalker is the one statement interpreter of the lock rules
// (lockblock, lockorder, unlockedescape). It threads the held set
// through a body in source order: a Lock statement adds its key, an
// Unlock removes it, and `defer mu.Unlock()` leaves it held to the end.
// A nested body (branch, case, loop) gets a copy, so locks taken or
// released inside it are scoped to it, which keeps the common
// `if cond { mu.Unlock(); return }` from poisoning the rest of the
// function. The rules supply the hooks; block, acquire and goBody may
// be nil.
type heldWalker struct {
	pkg *Package
	// lock names the lock a Lock/RLock/Unlock/RUnlock call takes or
	// releases: opNone leaves the call to expr, key "" is a lock the
	// rule does not track.
	lock    func(call *ast.CallExpr) (key string, op lockOp)
	acquire func(key string, call *ast.CallExpr, held heldSet) // before key joins held
	block   func(pos token.Pos, what string, held heldSet)     // a send, a select, a range over a channel
	// expr sees every expression the body evaluates, write set for an
	// assignment's targets, and hands the func literals in it to lit.
	expr   func(e ast.Expr, held heldSet, write bool)
	goBody func(body *ast.BlockStmt) // a go statement's literal; nil: walked with nothing held

	// Where the rules read a statement differently.
	inherit bool // a func literal, deferred or not, starts with a copy of held, not with nothing
	comm    bool // a select's comm statements are walked, each with a copy
	incDec  bool // x++ and x-- are walked as writes of x
}

func (w *heldWalker) stmts(list []ast.Stmt, held heldSet) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

// lit walks a func literal met inside an expression.
func (w *heldWalker) lit(lit *ast.FuncLit, held heldSet) {
	start := heldSet{}
	if w.inherit {
		start = held.clone()
	}
	w.stmts(lit.Body.List, start)
}

func (w *heldWalker) x(held heldSet, write bool, es ...ast.Expr) {
	for _, e := range es {
		if e != nil {
			w.expr(e, held, write)
		}
	}
}

func (w *heldWalker) blocks(pos token.Pos, what string, held heldSet) {
	if w.block != nil {
		w.block(pos, what, held)
	}
}

// stmt interprets one statement; a nil one (an absent Init) is a no-op.
func (w *heldWalker) stmt(s ast.Stmt, held heldSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op := w.lock(call); op != opNone {
				switch {
				case op == opUnlock:
					delete(held, key)
				case key != "":
					if w.acquire != nil {
						w.acquire(key, call, held)
					}
					held[key] = true
				}
				return
			}
		}
		w.x(held, false, s.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held: leave held alone. Any
		// other deferred call is evaluated here, under what is held here.
		if _, op := w.lock(s.Call); op == opNone {
			w.x(held, false, s.Call)
		}
	case *ast.GoStmt:
		// Arguments are evaluated on the launcher's stack; the body runs
		// on its own with nothing held.
		w.x(held, false, s.Call.Args...)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && w.goBody != nil {
			w.goBody(lit.Body)
		} else if ok {
			w.stmts(lit.Body.List, heldSet{})
		}
	case *ast.SendStmt:
		w.blocks(s.Pos(), "channel send", held)
		w.x(held, false, s.Chan, s.Value)
	case *ast.SelectStmt:
		w.blocks(s.Pos(), "select", held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if w.comm {
				w.stmt(cc.Comm, held.clone())
			}
			w.stmts(cc.Body, held.clone())
		}
	case *ast.AssignStmt:
		w.x(held, false, s.Rhs...)
		w.x(held, true, s.Lhs...)
	case *ast.IncDecStmt:
		if w.incDec {
			w.x(held, true, s.X)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.x(held, false, vs.Values...)
				}
			}
		}
	case *ast.ReturnStmt:
		w.x(held, false, s.Results...)
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.x(held, false, s.Cond)
		w.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			w.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		w.x(held, false, s.Cond)
		w.stmts(s.Body.List, held.clone())
	case *ast.RangeStmt:
		if isChan(w.pkg.Info.TypeOf(s.X)) {
			w.blocks(s.Pos(), "range over channel", held)
		}
		w.x(held, false, s.X)
		w.stmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.x(held, false, s.Tag)
		w.cases(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.cases(s.Body, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

func (w *heldWalker) cases(body *ast.BlockStmt, held heldSet) {
	for _, c := range body.List {
		w.stmts(c.(*ast.CaseClause).Body, held.clone())
	}
}
