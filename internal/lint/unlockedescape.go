package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnlockedEscape infers, per struct type with a mutex field, which
// sibling fields that mutex guards — any field *written* while a
// method holds the mutex — and then flags methods that read or write a
// guarded field without acquiring the lock. Methods whose names end in
// "Locked" are exempt by convention: they document that the caller
// holds the lock. Fields of sync/atomic types manage themselves and
// are never considered guarded.
var UnlockedEscape = &Analyzer{
	Name: "unlockedescape",
	Doc:  "mutex-guarded field accessed by a method that does not hold the lock",
	Run:  runUnlockedEscape,
}

// fieldAccess is one recv.field touch inside a method body.
type fieldAccess struct {
	field *types.Var
	pos   token.Pos
	write bool
	held  heldSet // mutex field names held at this point
}

// methodInfo is the per-method access summary for one receiver type.
type methodInfo struct {
	decl     *ast.FuncDecl
	accesses []fieldAccess
}

func runUnlockedEscape(pkg *Package) []Diagnostic {
	// Group methods by receiver base type (named structs only).
	byType := make(map[*types.Named][]*methodInfo)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List) == 0 {
				continue
			}
			named := receiverNamed(pkg, fn)
			if named == nil {
				continue
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				continue
			}
			byType[named] = append(byType[named], collectAccesses(pkg, fn))
		}
	}

	var diags []Diagnostic
	for named, methods := range byType {
		mutexes := mutexFieldNames(named)
		if len(mutexes) == 0 {
			continue
		}
		// A field is guarded by mutex m when some method writes it
		// while holding m. A write under several mutexes at once (a
		// double-locked rebalance, say) guards the field with each;
		// holding any one of them at an access site is accepted.
		guardedBy := make(map[*types.Var]heldSet)
		for _, mi := range methods {
			for _, acc := range mi.accesses {
				if !acc.write {
					continue
				}
				for m := range acc.held {
					if guardedBy[acc.field] == nil {
						guardedBy[acc.field] = make(heldSet)
					}
					guardedBy[acc.field][m] = true
				}
			}
		}
		for _, mi := range methods {
			if strings.HasSuffix(mi.decl.Name.Name, "Locked") {
				continue
			}
			for _, acc := range mi.accesses {
				guards := guardedBy[acc.field]
				if len(guards) == 0 || holdsAny(acc.held, guards) {
					continue
				}
				verb := "reads"
				if acc.write {
					verb = "writes"
				}
				diags = append(diags, Diagnostic{
					Pos:  pkg.pos(acc.pos),
					Rule: "unlockedescape",
					Message: fmt.Sprintf("%s %s field %s.%s without holding %s (guarded in sibling methods)",
						funcName(mi.decl), verb, named.Obj().Name(), acc.field.Name(), guardNames(guards)),
				})
			}
		}
	}
	return diags
}

// receiverNamed resolves a method's receiver to its named base type.
func receiverNamed(pkg *Package, fn *ast.FuncDecl) *types.Named {
	names := fn.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	obj := pkg.Info.Defs[names[0]]
	if obj == nil {
		return nil
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// mutexFieldNames lists fields of named's struct whose type is
// sync.Mutex or sync.RWMutex.
func mutexFieldNames(named *types.Named) []string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		t := f.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
			continue
		}
		if name := n.Obj().Name(); name == "Mutex" || name == "RWMutex" {
			out = append(out, f.Name())
		}
	}
	return out
}

// accessWalker records receiver-field accesses with the set of
// receiver mutexes held at each point. A func literal inside the method
// starts with what the method holds (it usually runs while it does).
type accessWalker struct {
	heldWalker
	recv     types.Object // receiver variable
	recvName string
	out      *methodInfo
}

func collectAccesses(pkg *Package, fn *ast.FuncDecl) *methodInfo {
	mi := &methodInfo{decl: fn}
	names := fn.Recv.List[0].Names
	w := &accessWalker{recv: pkg.Info.Defs[names[0]], recvName: names[0].Name, out: mi}
	w.heldWalker = heldWalker{pkg: pkg, lock: w.recvMutexOp, expr: w.scanExpr, inherit: true, incDec: true}
	w.stmts(fn.Body.List, heldSet{})
	return mi
}

// recvMutexOp reports whether call locks/unlocks a mutex field of the
// receiver (recv.m.Lock() and friends) and returns the field name.
func (w *accessWalker) recvMutexOp(call *ast.CallExpr) (field string, op lockOp) {
	key, op := mutexOp(w.pkg, call)
	if op == opNone {
		return "", opNone
	}
	prefix := w.recvName + "."
	if !strings.HasPrefix(key, prefix) {
		return "", opNone
	}
	field = strings.TrimPrefix(key, prefix)
	if strings.Contains(field, ".") {
		return "", opNone
	}
	return field, op
}

// scanExpr records receiver-field accesses in e. write applies to the
// outermost selector only (a[i] = x writes a; x = a[i] reads it).
func (w *accessWalker) scanExpr(e ast.Expr, held heldSet, write bool) {
	// Peel write-through wrappers: recv.f[i] = x and *recv.f = x write
	// the field; &recv.f escapes it (treated as a write, conservatively).
	target := ast.Unparen(e)
	for {
		switch t := target.(type) {
		case *ast.IndexExpr:
			w.scanExpr(t.Index, held, false)
			target = ast.Unparen(t.X)
			continue
		case *ast.StarExpr:
			target = ast.Unparen(t.X)
			continue
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				write = true
				target = ast.Unparen(t.X)
				continue
			}
		}
		break
	}
	if sel, ok := target.(*ast.SelectorExpr); ok && w.recordIfRecvField(sel, held, write) {
		// The selector itself is recorded; still scan deeper for
		// nested expressions on the base (none: base is the receiver).
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lit(n, held)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && w.recordIfRecvField(sel, held, true) {
					return false
				}
			}
		case *ast.SelectorExpr:
			if w.recordIfRecvField(n, held, false) {
				return false
			}
		}
		return true
	})
}

// recordIfRecvField records sel when it is recv.f for a plain data
// field f of the receiver struct (mutex and sync/atomic fields are
// skipped). Reports whether it recorded.
func (w *accessWalker) recordIfRecvField(sel *ast.SelectorExpr, held heldSet, write bool) bool {
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || w.pkg.Info.Uses[base] != w.recv {
		return false
	}
	obj := fieldObject(w.pkg, sel)
	if obj == nil || isSyncOrAtomicType(obj.Type()) {
		return false
	}
	w.out.accesses = append(w.out.accesses, fieldAccess{
		field: obj,
		pos:   sel.Pos(),
		write: write,
		held:  held.clone(),
	})
	return true
}

func holdsAny(held, guards heldSet) bool {
	for m := range guards {
		if held[m] {
			return true
		}
	}
	return false
}

// guardNames renders a guard set as "m" or "one of m1, m2".
func guardNames(guards heldSet) string {
	names := guards.sorted()
	if len(names) == 1 {
		return names[0]
	}
	return "one of " + strings.Join(names, ", ")
}
