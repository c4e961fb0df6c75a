package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph and reports
// cycles — the structural precondition for an ABBA deadlock. Nodes are
// type-scoped lock identities (every instance of T.mu is one node;
// see lockIdent). An edge A→B is recorded when lock B is acquired
// while A is held, either directly in one function or transitively:
// calling an in-module function that may itself acquire B (computed by
// a fixpoint over the call graph) while holding A orders the pair at
// the call site. Any strongly connected component with two or more
// locks means two code paths disagree about acquisition order, and a
// diagnostic is emitted at every edge inside the component so both
// sides of the inversion are visible.
//
// Known imprecision, chosen deliberately: instances of one type are
// collapsed (so hand-over-hand locking over two T's is invisible —
// self-edges are dropped rather than reported), and calls through
// interfaces or function values do not propagate (no summary exists
// for them). Both trade recall for a zero-noise gate.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "cycle in the module-wide lock-acquisition graph (potential ABBA deadlock)",
	RunModule: runLockOrder,
}

// lockCallSite is one call to an in-module function with the lock set
// held at the moment of the call.
type lockCallSite struct {
	callee string
	held   []string
	pos    token.Position
}

// lockSummary is everything lockorder needs to know about one function
// besides its direct ordering edges, which go straight to the graph.
type lockSummary struct {
	acquires map[string]bool // locks taken directly
	calls    []lockCallSite
}

func runLockOrder(pkgs []*Package) []Diagnostic {
	w := &orderWalker{sums: make(map[string]*lockSummary), edges: make(map[[2]string]token.Position)}
	w.heldWalker = heldWalker{lock: w.key, acquire: w.ordered, expr: w.record, goBody: w.goroutine, comm: true}
	for _, pkg := range pkgs {
		w.pkg = pkg
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
				w.sum = &lockSummary{acquires: make(map[string]bool)}
				w.stmts(fn.Body.List, heldSet{})
				w.sums[obj.FullName()] = w.sum
			}
		}
	}
	sums := w.sums

	// Transitive closure: mayAcquire(F) = direct acquires plus
	// everything any in-module callee may acquire, to a fixpoint.
	mayAcq := make(map[string]map[string]bool, len(sums))
	for id, sum := range sums {
		set := make(map[string]bool, len(sum.acquires))
		for l := range sum.acquires {
			set[l] = true
		}
		mayAcq[id] = set
	}
	for changed := true; changed; {
		changed = false
		for id, sum := range sums {
			mine := mayAcq[id]
			for _, c := range sum.calls {
				for l := range mayAcq[c.callee] {
					if !mine[l] {
						mine[l] = true
						changed = true
					}
				}
			}
		}
	}

	// The direct edges, plus held × mayAcquire(callee) at every call site.
	for _, sum := range sums {
		for _, c := range sum.calls {
			for l := range mayAcq[c.callee] {
				for _, h := range c.held {
					w.edge(h, l, c.pos)
				}
			}
		}
	}
	return lockOrderCycles(w.edges)
}

// edge adds from -> to to the acquisition graph; the first position
// wins per ordered pair, and a self-edge (two instances of one type) is
// dropped.
func (w *orderWalker) edge(from, to string, pos token.Position) {
	key := [2]string{from, to}
	if old, ok := w.edges[key]; from != to && (!ok || posLess(pos, old)) {
		w.edges[key] = pos
	}
}

// orderWalker records, per function, direct acquisitions, direct
// ordering edges and in-module call sites. Function literals are walked
// with nothing held but accrue to the enclosing declaration (it may run
// that code); goroutine bodies get a synthetic summary of their own so
// their acquisitions stay on their own stack instead of inflating the
// launcher's. sums is the module-wide registry.
type orderWalker struct {
	heldWalker
	sum   *lockSummary
	sums  map[string]*lockSummary
	edges map[[2]string]token.Position
	ngo   int
}

// key names a mutex by its type-scoped identity ("" for a local one).
func (w *orderWalker) key(call *ast.CallExpr) (string, lockOp) {
	if _, op := mutexOp(w.pkg, call); op != opNone {
		return lockIdent(w.pkg, call.Fun.(*ast.SelectorExpr).X), op
	}
	return "", opNone
}

func (w *orderWalker) ordered(key string, call *ast.CallExpr, held heldSet) {
	w.sum.acquires[key] = true
	for h := range held {
		w.edge(h, key, w.pkg.pos(call.Pos()))
	}
}

// record notes every in-module call under the current held set.
func (w *orderWalker) record(e ast.Expr, held heldSet, _ bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lit(n, held)
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(w.pkg, n); moduleFunc(fn) {
				w.sum.calls = append(w.sum.calls, lockCallSite{
					callee: fn.FullName(),
					held:   held.sorted(),
					pos:    w.pkg.pos(n.Pos()),
				})
			}
		}
		return true
	})
}

// goroutine walks a go statement's literal into its own summary. A
// named function launched by `go f()` contributes through its own
// declaration's summary; the launch is not a call.
func (w *orderWalker) goroutine(body *ast.BlockStmt) {
	outer := w.sum
	w.sum = &lockSummary{acquires: make(map[string]bool)}
	w.ngo++
	w.sums[fmt.Sprintf("go#%d", w.ngo)] = w.sum
	w.stmts(body.List, heldSet{})
	w.sum = outer
}

// lockOrderCycles runs Tarjan's SCC over the edge set and emits one
// diagnostic per edge inside a multi-lock component.
func lockOrderCycles(edges map[[2]string]token.Position) []Diagnostic {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]] = true
		nodes[key[1]] = true
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}

	// Tarjan's strongly connected components, iteratively indexed.
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	comp := make(map[string]int, len(nodes))
	var stack []string
	next, ncomp := 0, 0

	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range adj[v] {
			if _, seen := index[u]; !seen {
				strongConnect(u)
				if low[u] < low[v] {
					low[v] = low[u]
				}
			} else if onStack[u] && index[u] < low[v] {
				low[v] = index[u]
			}
		}
		if low[v] == index[v] {
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp[u] = ncomp
				if u == v {
					break
				}
			}
			ncomp++
		}
	}
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if _, seen := index[n]; !seen {
			strongConnect(n)
		}
	}

	members := make(map[int][]string)
	for n, c := range comp {
		members[c] = append(members[c], n)
	}

	var diags []Diagnostic
	for key, pos := range edges {
		from, to := key[0], key[1]
		c := comp[from]
		if c != comp[to] || len(members[c]) < 2 {
			continue
		}
		cyc := append([]string(nil), members[c]...)
		sort.Strings(cyc)
		for i := range cyc {
			cyc[i] = shortLock(cyc[i])
		}
		diags = append(diags, Diagnostic{
			Pos:  pos,
			Rule: "lockorder",
			Message: fmt.Sprintf("acquires %s while holding %s — lock-order cycle through {%s}; potential deadlock",
				shortLock(to), shortLock(from), strings.Join(cyc, ", ")),
		})
	}
	return diags
}

// shortLock trims the module prefix off a lock identity for readable
// messages: couchgo/internal/vbucket.VBucket.mu -> vbucket.VBucket.mu.
func shortLock(l string) string {
	l = strings.TrimPrefix(l, ModulePath+"/internal/")
	l = strings.TrimPrefix(l, ModulePath+"/")
	return l
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
