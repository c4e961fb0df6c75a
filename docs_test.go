package couchgo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsRunOnlyWhatExists: in the code spans and fenced blocks of the
// docs, each `go run|build|test|vet ./X` names a directory holding Go
// files, each `make T` a Makefile target, and each Test/Benchmark/Fuzz
// name a function some _test.go file declares.
func TestDocsRunOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w.-]+):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	declared := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// Every _test.go file of this module: bench/ (a module of its own),
	// dot directories and testdata are skipped.
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() && !strings.HasSuffix(path, "_test.go") {
			return err
		}
		if d.IsDir() {
			if _, mod := os.Stat(filepath.Join(path, "go.mod")); path != "." && (mod == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	quoted := regexp.MustCompile(`'[^']*'|"[^"]*"`)
	goCmd := regexp.MustCompile("\\bgo (?:run|build|test|vet)\\b([^&|;#)>\n`]*)")
	makeCmd := regexp.MustCompile(`(?:^|[\s(])make ([a-z][\w-]*)`)
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		md, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeOf(string(md)) {
			for _, m := range goCmd.FindAllStringSubmatch(quoted.ReplaceAllString(code, "''"), -1) {
				for _, arg := range strings.Fields(m[1]) {
					if dir, ok := strings.CutPrefix(arg, "./"); ok && !holdsGo(strings.TrimSuffix(dir, "...")) {
						t.Errorf("%s: %q: %s holds no Go files", doc, strings.TrimSpace(m[0]), arg)
					}
				}
			}
			for _, m := range makeCmd.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `make %s`: no such Makefile target", doc, m[1])
				}
			}
			for _, name := range testName.FindAllString(code, -1) {
				if !declared[name] {
					t.Errorf("%s: %s is declared in no _test.go file", doc, name)
				}
			}
		}
	}
}

// codeOf returns a markdown document's fenced blocks (continued lines
// joined) and inline code spans.
func codeOf(md string) []string {
	var code []string
	var prose, block strings.Builder
	fenced := false
	for _, line := range strings.Split(md, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			if fenced {
				code = append(code, strings.ReplaceAll(block.String(), "\\\n", " "))
				block.Reset()
			}
			fenced = !fenced
		case fenced:
			block.WriteString(line + "\n")
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		code = append(code, strings.ReplaceAll(m[1], "\n", " "))
	}
	return code
}

func holdsGo(dir string) bool {
	entries, _ := os.ReadDir(filepath.Clean("./" + dir))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
