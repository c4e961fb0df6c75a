// Command couchvet is the repo-specific static analyzer: it loads
// every package in the module and enforces the concurrency,
// error-handling and structure invariants described in internal/lint
// (`couchvet -list` names the rules).
//
// Usage:
//
//	couchvet [-rules r1,r2] [-json] [./... | pkgdir ...]
//
// With no arguments (or `./...`) the whole module is checked. Package
// directory arguments restrict which packages' findings are reported;
// the whole module is still loaded so cross-package types resolve.
// With -json, findings are printed to stdout as one JSON array of
// {file, line, col, rule, message} records — an empty run prints `[]`,
// so downstream formatters (cmd/vetfmt) can tell "clean" from
// "crashed". Exit status: 0 clean, 1 findings, 2 load/usage error.
//
// Deliberate exceptions are annotated in source:
//
//	//couchvet:ignore <rule> -- reason
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"couchgo/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "couchvet:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "couchvet:", err)
		os.Exit(2)
	}

	keep, err := pathFilter(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "couchvet:", err)
		os.Exit(2)
	}

	pkgs, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "couchvet:", err)
		os.Exit(2)
	}
	if keep != nil {
		kept := pkgs[:0]
		for _, p := range pkgs {
			if keep(p.Path) {
				kept = append(kept, p)
			}
		}
		pkgs = kept
	}

	diags := lint.RunAll(pkgs, analyzers)
	if *jsonOut {
		writeJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "couchvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// finding is the -json record shape. Kept flat and stable: cmd/vetfmt
// and CI annotation tooling parse it.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func writeJSON(diags []lint.Diagnostic) {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "couchvet:", err)
		os.Exit(2)
	}
}

func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.All, nil
	}
	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.All {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(rules, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// pathFilter maps directory arguments to an import-path predicate.
// `./...` (or no args) means no filter (nil). A trailing /... on a
// directory includes its subtree.
func pathFilter(root string, args []string) (func(string) bool, error) {
	if len(args) == 0 {
		return nil, nil
	}
	exact := make(map[string]bool)
	var prefixes []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return nil, nil
		}
		subtree := strings.HasSuffix(arg, "/...")
		arg = strings.TrimSuffix(arg, "/...")
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("argument %s is outside the module", arg)
		}
		path := lint.ModulePath
		if rel != "." {
			path = lint.ModulePath + "/" + filepath.ToSlash(rel)
		}
		exact[path] = true
		if subtree {
			prefixes = append(prefixes, path+"/")
		}
	}
	return func(path string) bool {
		if exact[path] {
			return true
		}
		for _, pre := range prefixes {
			if strings.HasPrefix(path, pre) {
				return true
			}
		}
		return false
	}, nil
}
