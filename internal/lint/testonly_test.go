package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// allowRow keeps one export under internal/ that no product code
// reaches: key names it as the detector does, reason says who needs it.
type allowRow struct{ key, reason string }

// testOnlyAllow is every export under internal/ kept although no
// product code reaches it.
var testOnlyAllow = []allowRow{
	{"cache.HashTable.EvictItem", "the fault hook ROADMAP item 1's tier A schedule evicts an item with; TestConformance's item-evicted runs use it today"},
	{"cache.HashTable.EvictValue", "bench/ladder.go evicts a persisted value so the vbucket rung of lib.kv-dgm takes the miss path"},
	{"core.NewClient", "bench/launcher.go's wire workloads drive a cluster of cbserver processes as an external smart client"},
	{"gsi.NewStandaloneIndexer", "bench/ladder.go's gsi rung applies to and scans one partition outside a Service"},
	{"transport.NetRouter.Invalidate", "bench/launcher.go re-reads the map while a wire cluster forms"},
	{"transport.NewRouter", "bench/launcher.go's wire workloads route their external smart client by it"},
	{"vbucket.VBucket.DrainDisk", "bench/ladder.go drains the standalone vBucket's disk queue after loading it"},
	{"vbucket.VBucket.Get", "bench/ladder.go's vbucket rung reads one standalone vBucket"},
	{"vbucket.VBucket.Set", "bench/ladder.go loads and writes one standalone vBucket"},
}

// TestNothingExportedForTests fails on every export under internal/ that
// no product code reaches: only _test.go files or bench/ refer to it, or
// only code that is itself unreached does. A bench/-only export is kept
// by an allowlist row; a row that names something product code reaches,
// or nothing at all, fails too.
func TestNothingExportedForTests(t *testing.T) {
	listed, stale := testOnly(loadRepo(t), testOnlyAllow)
	for _, k := range listed {
		t.Errorf("%s: only tests or bench/ reach it — delete it, or add an allowlist row saying who needs it", k)
	}
	for _, k := range stale {
		t.Errorf("allowlist row %s: product code reaches it, or it is gone — delete the row", k)
	}
}

// testOnlyFixtures are one internal package and what refers to it:
// a command, the command's test file and bench/.
var testOnlyFixtures = []fixture{
	{name: "fixture", path: internal + "fixture", src: `package fixture

type Via interface{ Reached() int }

type T struct {
	Used   int
	Tagged int ` + "`json:\"tagged\"`" + `
	Inner
	Unused int
}

type Inner struct{}

func (T) Reached() int { return 0 }
func (T) Unreached()   {}

func New() T     { return T{Used: 1} }
func OnlyTests() { Helper() }
func Helper()    {}
func Allowed()   { deep() }
func deep()      { Deep() }
func Deep()      {}
`},
	{name: "main", path: ModulePath + "/cmd/fixture", src: `package main

import "couchgo/internal/fixture"

func main() {
	var v fixture.Via = fixture.New()
	_ = v.Reached()
}
`},
	{name: "main_test", path: ModulePath + "/cmd/fixture", src: `package main

import "couchgo/internal/fixture"

func use() { fixture.OnlyTests(); _ = fixture.T{}.Unused }
`},
	{name: "bench", path: bench[0], src: `package main

import "couchgo/internal/fixture"

func main() { fixture.Allowed() }
`},
}

// TestExportDetectorFixtures: what only a _test.go file, bench/ or other
// unreached code refers to is listed; a method an interface reaches, a
// tagged field, an embedded field and an allowlisted export (with what
// only it reaches) are not; a row naming a reached export or nothing is
// stale.
func TestExportDetectorFixtures(t *testing.T) {
	pkgs := loadFixtures(t, testOnlyFixtures...)
	for _, c := range []struct {
		allow         []allowRow
		listed, stale []string
	}{
		{nil, []string{"fixture.Allowed", "fixture.Deep", "fixture.Helper", "fixture.OnlyTests", "fixture.T.Unreached", "fixture.T.Unused"}, nil},
		{[]allowRow{{"fixture.Allowed", "bench"}}, []string{"fixture.Helper", "fixture.OnlyTests", "fixture.T.Unreached", "fixture.T.Unused"}, nil},
		{[]allowRow{{"fixture.Allowed", "bench"}, {"fixture.New", "reached"}, {"fixture.Gone", "deleted"}},
			[]string{"fixture.Helper", "fixture.OnlyTests", "fixture.T.Unreached", "fixture.T.Unused"}, []string{"fixture.Gone", "fixture.New"}},
	} {
		listed, stale := testOnly(pkgs, c.allow)
		if !slices.Equal(listed, c.listed) || !slices.Equal(stale, c.stale) {
			t.Errorf("allow %v: listed %v, stale %v; want %v, %v", c.allow, listed, stale, c.listed, c.stale)
		}
	}
}

// testOnly returns the exports under internal/ that nothing reachable
// from product code refers to, less those allow keeps, and the rows of
// allow that name no such export. Product code is every declaration
// outside internal/ and bench/, each init under internal/, and each
// method there that an interface may call; whatever those refer to is
// reached, and so on, so what only unreached code uses is unreached
// too. _test.go files and bench/ reach nothing.
func testOnly(pkgs []*Package, allow []allowRow) (listed, stale []string) {
	g := newRefGraph(pkgs)
	unreached := g.unreached(nil)
	keep := map[string]bool{}
	for _, r := range allow {
		if !unreached[r.key] {
			stale = append(stale, r.key)
		}
		keep[r.key] = true
	}
	for k := range g.unreached(keep) {
		listed = append(listed, k)
	}
	sort.Strings(listed)
	sort.Strings(stale)
	return listed, stale
}

// refGraph is the module's declarations by key ("gsi.Indexer.Scan",
// "core.Config.Dir", "couchgo/cmd/cbq.main"), each with the keys it
// refers to. A key joins both copies of a package: the one checked as
// loaded and the one its importers see.
type refGraph struct {
	refs    map[string]map[string]bool
	roots   map[string]bool
	exports map[string]bool                      // what may be listed
	fields  map[*types.Var]string                // a struct field's key
	ifaces  map[string]map[*types.Interface]bool // method name -> the interfaces declaring it
	sigs    map[*types.Named]map[string]string   // a type's method set: name -> sigKey
}

func newRefGraph(pkgs []*Package) *refGraph {
	g := &refGraph{refs: map[string]map[string]bool{}, roots: map[string]bool{}, exports: map[string]bool{},
		fields: map[*types.Var]string{}, ifaces: map[string]map[*types.Interface]bool{}, sigs: map[*types.Named]map[string]string{}}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			switch u := tn.Type().Underlying().(type) {
			case *types.Interface:
				g.addIface(u)
			case *types.Struct:
				if inModule(tp.Path()) {
					for i := range u.NumFields() {
						g.fields[u.Field(i)] = shortKey(tp.Path(), name, u.Field(i).Name())
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range append(pkgs, dynamicIfaces()) {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if u, ok := tv.Type.Underlying().(*types.Interface); ok {
				g.addIface(u)
			}
		}
	}
	for _, p := range pkgs {
		g.addPackage(p)
	}
	return g
}

func (g *refGraph) addIface(it *types.Interface) {
	for i := range it.NumMethods() {
		name := it.Method(i).Name()
		if g.ifaces[name] == nil {
			g.ifaces[name] = map[*types.Interface]bool{}
		}
		g.ifaces[name][it] = true
	}
}

// viaInterface reports whether the method fn's receiver type implements
// an interface that declares fn, so that a call may reach fn unnamed.
// Method sets compare by sigKey, so either copy of a package will do.
func (g *refGraph) viaInterface(fn *types.Func) bool {
	n := namedOf(fn.Type().(*types.Signature).Recv().Type())
	if g.sigs[n] == nil {
		g.sigs[n] = map[string]string{}
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := range ms.Len() {
			g.sigs[n][ms.At(i).Obj().Name()] = sigKey(ms.At(i).Obj().Type().(*types.Signature))
		}
	}
next:
	for it := range g.ifaces[fn.Name()] {
		for i := range it.NumMethods() {
			if m := it.Method(i); g.sigs[n][m.Name()] != sigKey(m.Type().(*types.Signature)) {
				continue next
			}
		}
		return true
	}
	return false
}

// dynamicIfaces declares error and the interfaces that errors.Is,
// errors.As and errors.Unwrap assert inside their bodies, where no
// package scope shows them.
func dynamicIfaces() *Package {
	const src = `package dynamic

type (
	error1 interface{ Unwrap() error }
	errors interface{ Unwrap() []error }
	is     interface{ Is(error) bool }
	as     interface{ As(any) bool }
	err    interface{ error }
)
`
	f, err := parser.ParseFile(testFset, "dynamic.go", src, 0)
	if err != nil {
		panic(err)
	}
	info := NewInfo()
	tp, err := (&types.Config{}).Check("dynamic", testFset, []*ast.File{f}, info)
	if err != nil {
		panic(err)
	}
	return &Package{Path: "dynamic", Fset: testFset, Files: []*ast.File{f}, Types: tp, Info: info}
}

// sigKey is a signature without its parameter names.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := range tup.Len() {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func shortKey(pkg string, names ...string) string {
	return strings.Join(append([]string{strings.TrimPrefix(pkg, internal)}, names...), ".")
}

// keyOf is obj's key, "" for what is not a module package's member.
func (g *refGraph) keyOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return shortKey(o.Pkg().Path(), n.Origin().Obj().Name(), o.Name())
			}
			return ""
		}
	case *types.Var:
		if o.IsField() {
			return g.fields[o.Origin()]
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return shortKey(obj.Pkg().Path(), obj.Name())
}

// addPackage adds p's declarations: roots outside internal/ and bench/,
// exports inside internal/.
func (g *refGraph) addPackage(p *Package) {
	inInternal := strings.HasPrefix(p.Path, internal)
	product := !inInternal && p.Path != bench[0]
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := p.Info.Defs[d.Name].(*types.Func)
				k := g.keyOf(fn)
				root := product || inInternal && (d.Recv == nil && fn.Name() == "init" || d.Recv != nil && g.viaInterface(fn))
				g.add(p, d, root, inInternal && fn.Exported(), k)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							g.add(p, s, product, inInternal && id.IsExported(), g.keyOf(p.Info.Defs[id]))
						}
					case *ast.TypeSpec:
						g.add(p, s, product, inInternal && s.Name.IsExported(), g.keyOf(p.Info.Defs[s.Name]))
						st, ok := s.Type.(*ast.StructType)
						if !inInternal || !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							if fld.Tag != nil {
								continue
							}
							for _, id := range fld.Names { // none for an embedded field
								if id.IsExported() {
									g.exports[g.keyOf(p.Info.Defs[id])] = true
								}
							}
						}
					}
				}
			}
		}
	}
}

// add records that the declaration k, declared by n, refers to what n's
// identifiers use; an unkeyed struct literal uses every field.
func (g *refGraph) add(p *Package, n ast.Node, root, export bool, k string) {
	if k == "" {
		return
	}
	refs := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if k := g.keyOf(p.Info.Uses[n]); k != "" {
				refs[k] = true
			}
		case *ast.CompositeLit:
			st, ok := p.Info.TypeOf(n).Underlying().(*types.Struct)
			if ok && len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := range st.NumFields() {
						refs[g.keyOf(st.Field(i))] = true
					}
				}
			}
		}
		return true
	})
	if g.refs[k] == nil {
		g.refs[k] = map[string]bool{}
	}
	for r := range refs {
		g.refs[k][r] = true
	}
	if root {
		g.roots[k] = true
	}
	if export {
		g.exports[k] = true
	}
}

// unreached returns the exports that the roots and keep do not reach.
func (g *refGraph) unreached(keep map[string]bool) map[string]bool {
	reached := map[string]bool{}
	var visit func(k string)
	visit = func(k string) {
		if reached[k] {
			return
		}
		reached[k] = true
		for r := range g.refs[k] {
			visit(r)
		}
	}
	for k := range g.roots {
		visit(k)
	}
	for k := range keep {
		visit(k)
	}
	out := map[string]bool{}
	for k := range g.exports {
		if !reached[k] {
			out[k] = true
		}
	}
	return out
}
