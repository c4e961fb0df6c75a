package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Fixtures share one FileSet and one source importer so the standard
// library is type-checked once per test binary, not once per case.
var (
	testFset     = token.NewFileSet()
	testImporter = importer.ForCompiler(testFset, "source", nil)
)

// fixture is one table-driven analyzer test case: source with expected
// diagnostics embedded as `// want: <rule> [<rule>...]` comments on
// the offending lines.
type fixture struct {
	name string
	path string // import path to type-check under (affects path-gated rules)
	src  string
}

// heldFixture declares a type for lock fixtures to lock and touch.
const heldFixture = `package a

import "sync"

type S struct {
	mu, a, b, c sync.Mutex
	ch          chan int
	n           map[int]int
	m           map[string]int
}
`

// checkFixture type-checks src as a single-file package, runs analyzer
// a through the driver (including pragma suppression), and compares
// the diagnostics' (line, rule) pairs against the // want: comments.
func checkFixture(t *testing.T, a *Analyzer, fx fixture) {
	t.Helper()
	checkFixtureWith(t, a, fx, runRules)
}

// runRules is RunAll without its audit of unused pragmas.
func runRules(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := run(pkgs, analyzers)
	return diags
}

// checkFixtureAll is checkFixture through RunAll, so unusedpragma
// warnings participate in the comparison.
func checkFixtureAll(t *testing.T, a *Analyzer, fx fixture) {
	t.Helper()
	checkFixtureWith(t, a, fx, RunAll)
}

func checkFixtureWith(t *testing.T, a *Analyzer, fx fixture, run func([]*Package, []*Analyzer) []Diagnostic) {
	t.Helper()
	fx.name = a.Name + "_" + fx.name
	pkgs := loadFixtures(t, fx)
	compareWants(t, run(pkgs, []*Analyzer{a}), pkgs)
}

// fixtureImporter serves the fixtures checked so far, then the shared one.
type fixtureImporter map[string]*types.Package

func (m fixtureImporter) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return testImporter.Import(path)
}

// loadFixtures type-checks each fixture as a one-file package under its
// path (default internal/fixture), in order, so that a fixture may
// import the ones before it.
func loadFixtures(t *testing.T, fxs ...fixture) []*Package {
	t.Helper()
	checked := fixtureImporter{}
	var pkgs []*Package
	for _, fx := range fxs {
		path := fx.path
		if path == "" {
			path = ModulePath + "/internal/fixture"
		}
		file, err := parser.ParseFile(testFset, path+"/"+fx.name+".go", fx.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", fx.name, err)
		}
		info := NewInfo()
		tpkg, err := (&types.Config{Importer: checked}).Check(path, testFset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("typecheck fixture %s: %v", fx.name, err)
		}
		checked[path] = tpkg
		pkgs = append(pkgs, &Package{Path: path, Fset: testFset, Files: []*ast.File{file}, Types: tpkg, Info: info})
	}
	return pkgs
}

// compareWants compares the diagnostics' (file, line, rule) triples with
// the fixtures' `// want: rule [rule...]` comments.
func compareWants(t *testing.T, diags []Diagnostic, pkgs []*Package) {
	t.Helper()
	var got, want []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Rule))
	}
	for _, pkg := range pkgs {
		for _, cg := range pkg.Files[0].Comments {
			for _, c := range cg.List {
				// Substring, not prefix: a want marker may trail another
				// comment (e.g. a pragma under test).
				if _, text, ok := strings.Cut(c.Text, "// want:"); ok {
					pos := pkg.Fset.Position(c.Pos())
					for _, rule := range strings.Fields(text) {
						want = append(want, fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, rule))
					}
				}
			}
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("diagnostics mismatch\n got: %v\nwant: %v", got, want)
	}
}

var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadRepo loads the whole module once per test binary; the tests that
// read it skip under -short.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module typecheck is slow; run without -short")
	}
	repo.once.Do(func() { repo.pkgs, repo.err = Load("../..") })
	if repo.err != nil {
		t.Fatalf("Load: %v", repo.err)
	}
	return repo.pkgs
}

// TestLoadRepo loads and analyzes the entire module — the same work
// `go run ./cmd/couchvet ./...` does — and requires a clean result, so
// a finding introduced anywhere in the tree fails this package's tests
// too, not just the CI lint step.
func TestLoadRepo(t *testing.T) {
	pkgs := loadRepo(t)
	if len(pkgs) < 20 {
		t.Fatalf("Load found %d packages, expected the full tree (>=20)", len(pkgs))
	}
	for _, want := range []string{ModulePath, ModulePath + "/internal/feed", ModulePath + "/cmd/couchvet"} {
		found := false
		for _, p := range pkgs {
			if p.Path == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Load missed package %s", want)
		}
	}
	// RunAll, not Run: the gate also requires every //couchvet:ignore
	// pragma in the tree to still be earning its keep.
	if diags := RunAll(pkgs, All); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

// TestIgnorePragma exercises the suppression pragma through the
// driver: same-line and line-above placement, rule matching, and the
// "all" wildcard.
func TestIgnorePragma(t *testing.T) {
	fixtures := []fixture{
		{name: "same_line", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	s.ch <- 1 //couchvet:ignore lockblock -- fixture
	s.mu.Unlock()
}
`},
		{name: "line_above", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	//couchvet:ignore lockblock -- fixture
	s.ch <- 1
	s.mu.Unlock()
}
`},
		{name: "all_wildcard", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	s.ch <- 1 //couchvet:ignore all -- fixture
	s.mu.Unlock()
}
`},
		{name: "wrong_rule_does_not_suppress", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	s.ch <- 1 //couchvet:ignore droppederror -- wrong rule // want: lockblock
	s.mu.Unlock()
}
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, LockBlock, fx) })
	}
}

// TestUnusedPragma exercises the RunAll audit: a pragma whose rule ran
// but suppressed nothing is itself a finding; a pragma for a rule that
// did not run is left alone (a -rules subset must not condemn other
// rules' pragmas); a pragma doing real work stays silent.
func TestUnusedPragma(t *testing.T) {
	fixtures := []fixture{
		{name: "stale_pragma_flagged", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

// The send was fixed long ago; the pragma lingers.
func (s *S) f() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1 //couchvet:ignore lockblock -- stale // want: unusedpragma
}
`},
		{name: "working_pragma_silent", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	s.ch <- 1 //couchvet:ignore lockblock -- fixture
	s.mu.Unlock()
}
`},
		{name: "other_rules_pragma_exempt", src: `
package a

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

// droppederror is not in this run's analyzer set, so its pragma
// cannot be judged unused.
func (s *S) f() {
	s.mu.Lock()
	s.ch <- 1 //couchvet:ignore droppederror -- wrong rule // want: lockblock
	s.mu.Unlock()
}
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixtureAll(t, LockBlock, fx) })
	}
}
