package couchgo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineBudgets caps the non-test Go lines of each package, counted as
// `make loc` counts them, and byteBudgets the bytes of each prose
// document and of the largest CHANGES.md entry (one line per entry).
// TestBudgets fails `make test` on any number over its budget, on a
// package with no row and on a row naming no package.
//
// Lowering a budget is free: do it in the change that shrinks the
// number. Raising one needs a CHANGES.md line saying why.
var lineBudgets = map[string]int{
	".":                  598,
	"cmd/cbq":            109,
	"cmd/cbserver":       209,
	"cmd/cbtop":          373,
	"cmd/couchvet":       203,
	"cmd/vetfmt":         56,
	"internal/analytics": 224,
	"internal/btree":     377,
	"internal/buildinfo": 8,
	"internal/cache":     1276,
	"internal/cmap":      352,
	"internal/core":      2930,
	"internal/dcp":       607,
	"internal/events":    365,
	"internal/executor":  1574,
	"internal/feed":      606,
	"internal/fts":       393,
	"internal/gsi":       1285,
	"internal/health":    487,
	"internal/lint":      3181,
	"internal/memcproto": 780,
	"internal/metrics":   652,
	"internal/n1ql":      2961,
	"internal/planner":   979,
	"internal/query":     283,
	"internal/rest":      1410,
	"internal/storage":   1036,
	"internal/trace":     987,
	"internal/transport": 2330,
	"internal/value":     695,
	"internal/vbucket":   859,
	"internal/views":     648,
	"internal/xdcr":      238,
}

var byteBudgets = map[string]int{
	"DESIGN.md":                      115574,
	"README.md":                      17425,
	"EXPERIMENTS.md":                 25048,
	".claude/skills/verify/SKILL.md": 56739,
	"CHANGES.md entry":               13333,
}

func TestBudgets(t *testing.T) {
	lines := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			// As `make loc`: bench/ and testdata are not counted; nor are
			// dot directories, which hold no Go.
			if path == "bench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			lines[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte("\n"))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg, n := range lines {
		if budget, ok := lineBudgets[pkg]; !ok {
			t.Errorf("%s: %d lines and no budget: add a lineBudgets row", pkg, n)
		} else if n > budget {
			t.Errorf("%s: %d lines, over its budget of %d", pkg, n, budget)
		}
	}
	for pkg := range lineBudgets {
		if _, ok := lines[pkg]; !ok {
			t.Errorf("lineBudgets row %s names no package: delete it", pkg)
		}
	}

	for doc, budget := range byteBudgets {
		name, entry := strings.CutSuffix(doc, " entry")
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		n := len(b)
		if entry {
			n = 0
			for _, e := range bytes.Split(b, []byte("\n")) {
				n = max(n, len(e))
			}
		}
		if n > budget {
			t.Errorf("%s: %d bytes, over its budget of %d", doc, n, budget)
		}
	}
}
