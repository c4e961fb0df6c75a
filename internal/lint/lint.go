// Package lint is couchvet's analysis engine: a repo-specific static
// analyzer built only on the standard library's go/ast, go/parser,
// go/types, and go/token. It enforces invariants that stock `go vet`
// cannot see — the concurrency and error-handling conventions the
// memory-first data service, DCP producers, and asynchronous consumer
// services (paper §4.3, §5) uphold today only by discipline:
//
//   - lockblock:        no mutex held across a channel send/receive,
//     select, socket write, or call into another internal package
//   - mixedatomic:      no struct field accessed both via sync/atomic
//     and via plain loads/stores
//   - unlockedescape:   no method touching mutex-guarded fields
//     without acquiring the lock its siblings use
//   - leakedgoroutine:  no `go` statement launching an infinite loop
//     with no stop channel, context, or exit path
//   - droppederror:     no silently discarded error returns in the
//     storage/cache/feed packages
//   - lockorder:        no cycle in the module-wide lock-acquisition
//     graph (a lock taken — directly or via a called in-repo function —
//     while another is held orders the pair; a cycle is a potential
//     deadlock)
//   - ctxflow:          no function that receives a context.Context and
//     then blocks (socket I/O, channel op, Wait, time.Sleep) without
//     consuming the ctx — wire-facing code must stay cancellable
//   - framebound:       no allocation in internal/memcproto sized by a
//     wire-derived length without a preceding bounds check against a
//     declared maximum
//   - structure:        no second X where the module has one: the rows
//     of one rule table (structure.go)
//
// lockblock, mixedatomic, unlockedescape, leakedgoroutine, droppederror
// and framebound are intra-procedural; lockorder, ctxflow and structure
// run once over the whole loaded module (Analyzer.RunModule). The three
// lock rules share one statement interpreter, heldWalker (walk.go).
//
// Deliberate exceptions are annotated in source with
//
//	//couchvet:ignore <rule> [<rule>...]  -- reason
//
// on the offending line or the line above it. The driver suppresses
// matching diagnostics; `//couchvet:ignore all` suppresses every rule.
// A pragma that suppresses nothing for a rule that actually ran is
// itself reported (rule "unusedpragma") by RunAll, so stale
// justifications cannot rot in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this repository's module.
// The analyzers use it to tell in-repo internal packages apart from
// the standard library.
const ModulePath = "couchgo"

// Diagnostic is one finding, positioned for editor-clickable output.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Package is one loaded, type-checked package under analysis.
type Package struct {
	Path  string // import path, e.g. couchgo/internal/feed
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one couchvet rule. Exactly one of Run (per-package,
// intra-procedural) and RunModule (once over every loaded package,
// inter-procedural) is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Package) []Diagnostic
	RunModule func([]*Package) []Diagnostic
}

// All is every analyzer couchvet runs, in report order.
var All = []*Analyzer{
	LockBlock,
	MixedAtomic,
	UnlockedEscape,
	LeakedGoroutine,
	DroppedError,
	LockOrder,
	CtxFlow,
	FrameBound,
	Structure,
}

// NewInfo returns a types.Info with every map the analyzers need.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load parses and type-checks every non-test package under root (the
// module directory). Vendored, hidden, and testdata directories are
// skipped. Dependencies — standard library and in-module alike — are
// resolved from source via the stdlib importer, so the analyzer needs
// nothing beyond the go toolchain.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loadDir(fset, imp, root, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// packageDirs walks root for directories containing buildable .go files.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func loadDir(fset *token.FileSet, imp types.Importer, root, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// A file built for another GOOS (internal/storage's mapping)
		// declares what this host's file declares.
		if match, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := ModulePath
	if rel != "." {
		path = ModulePath + "/" + filepath.ToSlash(rel)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// RunAll executes the analyzers over pkgs, drops pragma-suppressed
// findings, and returns the rest sorted by position. Module-level
// analyzers (RunModule) see every package at once; their diagnostics
// are suppressed by pragmas exactly like per-package ones. Pragma
// hygiene rides along: any //couchvet:ignore pragma naming a rule that
// ran but suppressed nothing is reported as a finding (rule
// "unusedpragma"), so justifications that stopped being necessary —
// because the code or the rule changed — surface instead of rotting.
// Pragmas for rules that were not selected this run are left alone, so
// `-rules` subsetting does not spray warnings.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, unused := run(pkgs, analyzers)
	return sortDiags(append(diags, unused...))
}

func run(pkgs []*Package, analyzers []*Analyzer) (diags, unused []Diagnostic) {
	pragmas := collectPragmas(pkgs)
	suppress := func(d Diagnostic) bool {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, rule := range []string{d.Rule, "all"} {
				if p := pragmas[ignoreKey{d.Pos.Filename, line, rule}]; p != nil {
					p.used = true
					return true
				}
			}
		}
		return false
	}
	emit := func(ds []Diagnostic) {
		for _, d := range ds {
			if !suppress(d) {
				diags = append(diags, d)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				emit(a.Run(pkg))
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			emit(a.RunModule(pkgs))
		}
	}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, p := range pragmas {
		if p.used || (p.rule != "all" && !ran[p.rule]) {
			continue
		}
		unused = append(unused, Diagnostic{
			Pos:     p.pos,
			Rule:    "unusedpragma",
			Message: fmt.Sprintf("couchvet:ignore %s suppresses nothing — delete the pragma or fix the justification", p.rule),
		})
	}
	return sortDiags(diags), sortDiags(unused)
}

func sortDiags(out []Diagnostic) []Diagnostic {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// ignoreKey identifies one pragma-covered source line.
type ignoreKey struct {
	file string
	line int
	rule string
}

// pragmaEntry is one (pragma comment, rule) pair with its suppression
// history for unused-pragma reporting.
type pragmaEntry struct {
	rule string
	pos  token.Position
	used bool
}

const ignorePragma = "//couchvet:ignore"

// collectPragmas gathers every //couchvet:ignore pragma across all
// packages, keyed by file, line, and rule ("all" matches any rule).
func collectPragmas(pkgs []*Package) map[ignoreKey]*pragmaEntry {
	out := make(map[ignoreKey]*pragmaEntry)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePragma) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignorePragma)
					// Allow a trailing justification after " -- ".
					if i := strings.Index(rest, "--"); i >= 0 {
						rest = rest[:i]
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, rule := range strings.Fields(rest) {
						key := ignoreKey{pos.Filename, pos.Line, rule}
						if out[key] == nil {
							out[key] = &pragmaEntry{rule: rule, pos: pos}
						}
					}
				}
			}
		}
	}
	return out
}
