package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces that a context.Context handed to a function is not
// dropped on the floor before a blocking operation. The contract the
// wire-facing layers (core.NodeConn implementers, transport sessions,
// durability waits) live by is: if you accept a ctx and you block, the
// ctx must be able to stop you.
//
// For every function with a context.Context parameter:
//
//   - time.Sleep is always flagged — a sleep can never observe ctx;
//     use a timer in a select with ctx.Done().
//   - Direct blocking operations (channel send/receive, range over a
//     channel, select without default and without a ctx.Done() case,
//     sync Wait, socket read/write) are flagged unless the function
//     consumes the ctx: calls Done/Err/Deadline on it, or hands it to
//     a callee that can act on it — anything whose body was not
//     loaded (outside the module, or outside the load pattern), an
//     interface method, a function value, or a loaded function that
//     itself blocks or (transitively) consumes.
//   - Calling an in-module function that may block *without* passing
//     the ctx is flagged (again, only when the caller never consumes
//     the ctx) — the inter-procedural case: the blocking happens two
//     frames down, but the ctx died here.
//
// "May block" is a fixpoint over the call graph. For the
// dropped-before-a-call finding it propagates only through ctx-less
// calls (a call that forwards a ctx is the callee's problem — the
// callee either consumes it or gets flagged itself); for consumption
// credit it propagates through every in-module call, so forwarding
// ctx to a thin wrapper around the real blocker still counts. A `go`
// statement is a boundary: the launched goroutine's blocking is its
// own, not the launcher's, though ctx use inside the goroutine still
// counts as consumption. Mutex operations and file I/O are
// deliberately not blocking ops: counting them would drag the storage
// and cache layers into a rule aimed at the network.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "context.Context parameter dropped before a blocking operation",
	RunModule: runCtxFlow,
}

// blockSite is one blocking operation inside a function body.
type blockSite struct {
	what  string
	pos   token.Position
	sleep bool // time.Sleep: flagged unconditionally
}

// ctxPass is one call that received the function's own ctx parameter
// as an argument; whether it counts as consumption depends on who the
// callee is (resolved after the fixpoints).
type ctxPass struct {
	callee *types.Func // nil: function value / builtin / conversion
	iface  bool
}

// ctxCallSite is one call to an in-module function.
type ctxCallSite struct {
	callee string
	label  string
	pos    token.Position
}

// ctxFuncInfo is the per-function summary ctxflow works from.
type ctxFuncInfo struct {
	id         string
	ctxName    string // "" when the function has no ctx parameter
	blocks     []blockSite
	consumesOp bool // ctx.Done / ctx.Err / ctx.Deadline observed
	passes     []ctxPass
	noCtxCalls []ctxCallSite // in-module calls without any ctx argument
	ctxCalls   []string      // in-module callees receiving some ctx

	mayBlockNoCtx bool // blocks, ignoring callees that were handed a ctx
	mayBlockAny   bool // blocks through any call chain
	usesCtx       bool // consumes, directly or through forwarding
}

func runCtxFlow(pkgs []*Package) []Diagnostic {
	var funcs []*ctxFuncInfo
	byID := make(map[string]*ctxFuncInfo)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				info := collectCtxFunc(pkg, fn, obj)
				funcs = append(funcs, info)
				byID[info.id] = info
			}
		}
	}

	for _, info := range funcs {
		info.mayBlockNoCtx = len(info.blocks) > 0
		info.mayBlockAny = len(info.blocks) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, info := range funcs {
			if !info.mayBlockNoCtx {
				for _, c := range info.noCtxCalls {
					if callee := byID[c.callee]; callee != nil && callee.mayBlockNoCtx {
						info.mayBlockNoCtx = true
						changed = true
						break
					}
				}
			}
			if !info.mayBlockAny {
				for _, id := range append(info.ctxCalls, calleeIDs(info.noCtxCalls)...) {
					if callee := byID[id]; callee != nil && callee.mayBlockAny {
						info.mayBlockAny = true
						changed = true
						break
					}
				}
			}
		}
	}

	// Consumption credit: direct Done/Err/Deadline, a pass to anything
	// whose body we cannot see (absent from byID: outside the module, or
	// in a package the load pattern left out, so the verdict on a
	// function does not depend on what was loaded beside it), or a pass
	// to a loaded callee that blocks or transitively uses the ctx.
	for _, info := range funcs {
		info.usesCtx = info.consumesOp
		for _, p := range info.passes {
			if p.callee == nil || p.iface {
				info.usesCtx = true
				break
			}
			if callee := byID[p.callee.FullName()]; callee == nil || callee.mayBlockAny {
				info.usesCtx = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range funcs {
			if info.usesCtx {
				continue
			}
			for _, p := range info.passes {
				if p.callee == nil {
					continue
				}
				if callee := byID[p.callee.FullName()]; callee != nil && callee.usesCtx {
					info.usesCtx = true
					changed = true
					break
				}
			}
		}
	}

	var diags []Diagnostic
	for _, info := range funcs {
		if info.ctxName == "" {
			continue
		}
		for _, b := range info.blocks {
			switch {
			case b.sleep:
				diags = append(diags, Diagnostic{
					Pos:  b.pos,
					Rule: "ctxflow",
					Message: fmt.Sprintf("time.Sleep cannot observe %s; use a timer in a select with %s.Done()",
						info.ctxName, info.ctxName),
				})
			case !info.usesCtx:
				diags = append(diags, Diagnostic{
					Pos:  b.pos,
					Rule: "ctxflow",
					Message: fmt.Sprintf("%s blocks but %s is never consumed (no Done/Err/Deadline, no pass-through)",
						b.what, info.ctxName),
				})
			}
		}
		if !info.usesCtx {
			for _, c := range info.noCtxCalls {
				if callee := byID[c.callee]; callee != nil && callee.mayBlockNoCtx {
					diags = append(diags, Diagnostic{
						Pos:  c.pos,
						Rule: "ctxflow",
						Message: fmt.Sprintf("calls %s, which may block, without passing %s",
							c.label, info.ctxName),
					})
				}
			}
		}
	}
	return diags
}

func calleeIDs(calls []ctxCallSite) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = c.callee
	}
	return out
}

// collectCtxFunc walks one function body, classifying blocking ops,
// ctx consumption, and in-module calls. Function literals are part of
// the enclosing declaration — the ctx is in scope there, and a
// closure's blocking is the function's blocking — except goroutine
// bodies, where only ctx consumption is recorded.
func collectCtxFunc(pkg *Package, fn *ast.FuncDecl, obj *types.Func) *ctxFuncInfo {
	info := &ctxFuncInfo{id: obj.FullName()}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if !isContextType(pkg.Info.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					info.ctxName = name.Name
					break
				}
			}
			if info.ctxName != "" {
				break
			}
		}
	}

	isCtxIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.ctxName != "" && id.Name == info.ctxName
	}

	var buildWalk func(inGo bool) func(ast.Node) bool
	buildWalk = func(inGo bool) func(ast.Node) bool {
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !inGo {
					// The goroutine blocks on its own stack; the
					// launcher does not. Arguments are evaluated here,
					// though, so walk them in the launcher's world.
					for _, a := range n.Call.Args {
						ast.Inspect(a, walk)
					}
					inner := buildWalk(true)
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						ast.Inspect(lit.Body, inner)
					}
					return false
				}
			case *ast.SendStmt:
				if !inGo {
					info.blocks = append(info.blocks, blockSite{what: "channel send", pos: pkg.pos(n.Pos())})
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !inGo {
					info.blocks = append(info.blocks, blockSite{what: "channel receive", pos: pkg.pos(n.Pos())})
				}
			case *ast.RangeStmt:
				if !inGo && isChan(pkg.Info.TypeOf(n.X)) {
					info.blocks = append(info.blocks, blockSite{what: "range over channel", pos: pkg.pos(n.Pos())})
				}
			case *ast.SelectStmt:
				hasDefault, hasDone := false, false
				for _, c := range n.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok {
						continue
					}
					if cc.Comm == nil {
						hasDefault = true
						continue
					}
					ast.Inspect(cc.Comm, func(m ast.Node) bool {
						if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isCtxIdent(sel.X) {
							hasDone = true
						}
						return true
					})
				}
				if hasDone {
					info.consumesOp = true
				}
				if !hasDefault && !hasDone && !inGo {
					info.blocks = append(info.blocks, blockSite{what: "select without default", pos: pkg.pos(n.Pos())})
				}
				// The comm clauses' channel ops are the select itself;
				// don't double-report them. Walk only the case bodies.
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							ast.Inspect(s, walk)
						}
					}
				}
				return false
			case *ast.SelectorExpr:
				if isCtxIdent(n.X) {
					switch n.Sel.Name {
					case "Done", "Err", "Deadline":
						info.consumesOp = true
					}
				}
			case *ast.CallExpr:
				callee := calleeFunc(pkg, n)
				if !inGo {
					switch {
					case timeFunc(callee, "Sleep"):
						info.blocks = append(info.blocks, blockSite{what: "time.Sleep", pos: pkg.pos(n.Pos()), sleep: true})
					case isSyncWait(pkg, n):
						info.blocks = append(info.blocks, blockSite{what: "sync Wait", pos: pkg.pos(n.Pos())})
					case socketRead(pkg, n):
						info.blocks = append(info.blocks, blockSite{what: "socket read", pos: pkg.pos(n.Pos())})
					case socketWrite(pkg, n):
						info.blocks = append(info.blocks, blockSite{what: "socket write", pos: pkg.pos(n.Pos())})
					}
				}
				passesOwnCtx, passesAnyCtx := false, false
				for _, a := range n.Args {
					if isCtxIdent(a) {
						passesOwnCtx = true
					}
					if isContextType(pkg.Info.TypeOf(a)) {
						passesAnyCtx = true
					}
				}
				if passesOwnCtx {
					info.passes = append(info.passes, ctxPass{callee: callee, iface: interfaceMethod(callee)})
				}
				if !inGo && moduleFunc(callee) {
					if passesAnyCtx {
						info.ctxCalls = append(info.ctxCalls, callee.FullName())
					} else {
						info.noCtxCalls = append(info.noCtxCalls, ctxCallSite{
							callee: callee.FullName(),
							label:  shortLock(callee.FullName()),
							pos:    pkg.pos(n.Pos()),
						})
					}
				}
			}
			return true
		}
		return walk
	}
	ast.Inspect(fn.Body, buildWalk(false))
	return info
}

// isSyncWait reports whether call is WaitGroup.Wait or Cond.Wait.
func isSyncWait(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}

// interfaceMethod reports whether fn is declared on an interface.
func interfaceMethod(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}
