package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockOp classifies a sync.Mutex / sync.RWMutex method call.
type lockOp int

const (
	opNone   lockOp = iota
	opLock          // Lock, RLock
	opUnlock        // Unlock, RUnlock
)

// mutexOp reports whether call is a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, and if so returns the op and a stable
// string key for the mutex expression (e.g. "v.mu", "s", "mu").
func mutexOp(pkg *Package, call *ast.CallExpr) (key string, op lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", opNone
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return "", opNone
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", opNone
	}
	return exprKey(sel.X), op
}

// exprKey renders a (simple) expression as a stable identity string.
// Good enough to match `v.mu.Lock()` with `v.mu.Unlock()`.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}

// calleePackage returns the import path of the package a call's callee
// belongs to ("" when unknown, e.g. calls through function values).
func calleePackage(pkg *Package, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	obj := pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isChan reports whether t's core type is a channel.
func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// returnsError reports whether call's result type is, or includes, the
// built-in error interface.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok &&
		named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return true
	}
	return types.Implements(t, errorIface)
}

// isSyncOrAtomicType reports whether t (or the type it points to) is
// declared in sync or sync/atomic — fields of such types manage their
// own synchronization.
func isSyncOrAtomicType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "sync" || p == "sync/atomic"
}

// namedOf returns the named type t is or points to, nil for any other.
func namedOf(t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// socketWrite reports whether call writes to a network connection: a
// Write/WriteTo method on a value whose type is, or implements,
// net.Conn. Wrapper types (byte-counting decorators and the like) are
// caught through the interface check, so hiding the conn behind an
// embedding struct does not hide the write. A socket write blocks for
// as long as the peer's receive window stays closed — holding a mutex
// across one turns a slow peer into a stalled process.
func socketWrite(pkg *Package, call *ast.CallExpr) bool {
	return socketMethod(pkg, call, "Write", "WriteTo")
}

// socketRead is socketWrite's receive-side twin: a Read/ReadFrom on
// anything that is or implements net.Conn. A socket read blocks until
// the peer sends — the canonical op a context must be able to abandon.
func socketRead(pkg *Package, call *ast.CallExpr) bool {
	return socketMethod(pkg, call, "Read", "ReadFrom")
}

func socketMethod(pkg *Package, call *ast.CallExpr, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	found := false
	for _, n := range names {
		if sel.Sel.Name == n {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return false
	}
	// Direct hits: methods declared in package net (including
	// net.Conn's own interface methods, which is what a plain
	// `conn.Write` through an interface value resolves to).
	if fn.Pkg() != nil && fn.Pkg().Path() == "net" {
		return true
	}
	conn := netConnIface(pkg)
	if conn == nil {
		return false
	}
	recv := selection.Recv()
	if recv == nil {
		return false
	}
	return implements(recv, conn)
}

// implements reports whether t, or a pointer to it, implements iface.
func implements(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	_, isPtr := t.(*types.Pointer)
	return !isPtr && types.Implements(types.NewPointer(t), iface)
}

// netConnIface finds the net.Conn interface among the package's
// direct imports (nil when the package never touches net — then no
// local type can name a net.Conn either).
func netConnIface(pkg *Package) *types.Interface {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() != "net" {
			continue
		}
		obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// calleeFunc resolves a call's callee to its *types.Func (nil for
// calls through function values, conversions, and builtins).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// moduleFunc reports whether fn is declared in this module.
func moduleFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && inModule(fn.Pkg().Path())
}

func inModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// lockIdent resolves the mutex operand of a Lock/Unlock call to a
// type-scoped identity that is comparable across functions and
// packages: "pkg/path.Type.field" for a mutex field on a named type,
// "pkg/path.var" for a package-level mutex, "" when the mutex is a
// local variable (instance-anonymous locks cannot participate in a
// global order). Instances are deliberately collapsed: every T.mu is
// one node in the acquisition graph, which is exactly the abstraction
// a lock-ordering discipline is stated in.
func lockIdent(pkg *Package, mutexExpr ast.Expr) string {
	switch e := ast.Unparen(mutexExpr).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		// Field selection: identity is the receiver's named type plus
		// the field name, pointer receivers dereferenced.
		if selection, ok := pkg.Info.Selections[e]; ok {
			if v, ok := selection.Obj().(*types.Var); ok && v.IsField() {
				t := selection.Recv()
				for {
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
						continue
					}
					break
				}
				if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
				}
			}
			return ""
		}
		// Qualified package-level var: otherpkg.mu.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if obj := pkg.Info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name()
				}
			}
		}
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// internalPackage reports whether path is an in-module internal
// package other than self.
func internalPackage(path, self string) bool {
	return path != self &&
		strings.HasPrefix(path, ModulePath+"/internal/") &&
		path != ""
}

func (pkg *Package) pos(p token.Pos) token.Position { return pkg.Fset.Position(p) }

// funcName labels a function declaration for diagnostics.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		return "(" + exprKey(fn.Recv.List[0].Type) + ")." + fn.Name.Name
	}
	return fn.Name.Name
}
