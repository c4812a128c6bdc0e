// Package analyzertest runs a pipesvet analyzer over fixture packages and
// checks its diagnostics against `// want` comments — a small stand-in for
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under testdata/src/<importpath>/ and are plain GOPATH-style
// packages: imports between fixture packages resolve within testdata/src,
// everything else resolves from the standard library through the shared
// offline loader of package analysis.
//
// Expectations are written on the offending line:
//
//	ch := make(chan int)
//	<-ch // want `channel receive`
//
// The backquoted string is a regular expression matched against the
// diagnostic message; every diagnostic must match exactly one want and
// vice versa.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"pipes/internal/analysis"
)

// Run loads each fixture package and applies the analyzer through the
// shared runner, failing t on any mismatch between reported and wanted
// diagnostics. The analyzer is the whole suite of the run, so an allow
// directive naming any other analyzer is reported as unknown.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	// Fixture packages shadow the standard library.
	l := analysis.NewLoader(func(path string) (string, bool) {
		dir := filepath.Join(testdata, "src", path)
		fi, err := os.Stat(dir)
		return dir, err == nil && fi.IsDir()
	})
	for _, path := range pkgpaths {
		pkg, err := l.Load(path)
		if err == nil && pkg == nil {
			err = fmt.Errorf("no Go files")
		}
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		var diags []analysis.Diagnostic
		if _, err := l.Run(pkg, []*analysis.Analyzer{a}, func(_ *analysis.Analyzer, d analysis.Diagnostic) {
			diags = append(diags, d)
		}); err != nil {
			t.Fatal(err)
		}
		checkWants(t, l.Fset, pkg.Files, diags)
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE matches expectations in line comments (`// want`) and block
// comments (`/* want ... */`). The block form exists for lines whose
// diagnostic is reported *on a comment* — an allow directive with no
// reason text, say — where a trailing line comment cannot follow.
var wantRE = regexp.MustCompile("(?://|/\\*) want `([^`]+)`")

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				p := fset.Position(c.Pos())
				wants = append(wants, &want{file: p.Filename, line: p.Line, re: re})
			}
		}
	}
	var unmatched []string
	for _, d := range diags {
		p := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.hit && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				w.hit = true
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", filepath.Base(p.Filename), p.Line, d.Message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			unmatched = append(unmatched, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re))
		}
	}
	sort.Strings(unmatched)
	for _, msg := range unmatched {
		t.Error(msg)
	}
}
