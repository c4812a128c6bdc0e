// Command pipesvet runs the PIPES analyzer suite (internal/analysis) over
// packages of the enclosing module, fully offline and in one process:
//
//	go build -o /tmp/pipesvet ./cmd/pipesvet
//	/tmp/pipesvet [-json] [packages]
//
// Packages are directories or dir/... wildcards (default ./...); a
// wildcard skips testdata, dot- and underscore-directories and nested
// modules, as the go tool does. Each finding prints as
// `file:line:col: message`, the file relative to the module root, sorted
// by file, line and analyzer. With -json the same findings are one
// machine-readable report — {file, line, analyzer, message} each, plus the
// number of findings //pipesvet:allow directives suppressed across the
// run. The exit status is 0 when clean, 1 on findings, 2 on driver
// errors. See STATIC_ANALYSIS.md for the rules the suite enforces and how
// to add an analyzer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pipes/internal/analysis"
	"pipes/internal/analysis/atomicmix"
	"pipes/internal/analysis/frameborrow"
	"pipes/internal/analysis/hotpathclock"
	"pipes/internal/analysis/lockorder"
	"pipes/internal/analysis/nogoroutine"
	"pipes/internal/analysis/sealedsub"
	"pipes/internal/analysis/snapshotclosure"
	"pipes/internal/analysis/traceslot"
)

// Analyzers returns the full pipesvet suite in a stable order. Adding an
// analyzer means adding it here; allow directives are checked against
// these names.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		frameborrow.Analyzer,
		hotpathclock.Analyzer,
		lockorder.Analyzer,
		nogoroutine.Analyzer,
		sealedsub.Analyzer,
		snapshotclosure.Analyzer,
		traceslot.Analyzer,
	}
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON report instead of file:line:col: message lines")
	flag.Parse()
	os.Exit(run(flag.Args(), *jsonOut))
}

// finding is one diagnostic as reported: the -json schema plus the
// column the text form prints.
type finding struct {
	File     string `json:"file"` // module-root-relative path
	Line     int    `json:"line"`
	Col      int    `json:"-"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Diagnostics []finding `json:"diagnostics"`
	// AllowSuppressed counts findings silenced by //pipesvet:allow
	// directives across the whole run: a rising count with a flat
	// diagnostic count is suppression creep.
	AllowSuppressed int `json:"allowSuppressed"`
}

// run analyzes the packages named by patterns, prints the report and
// returns the exit status.
func run(patterns []string, jsonOut bool) int {
	report, err := analyze(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipesvet:", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		err = enc.Encode(report)
	} else {
		for _, d := range report.Diagnostics {
			if _, err = fmt.Printf("%s:%d:%d: %s\n", d.File, d.Line, d.Col, d.Message); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipesvet:", err)
		return 2
	}
	if len(report.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// analyze loads every package the patterns name and runs the suite over
// each, returning the sorted findings and the run's suppression count.
func analyze(patterns []string) (jsonReport, error) {
	report := jsonReport{Diagnostics: []finding{}}
	root, modPath, err := readModule()
	if err != nil {
		return report, err
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return report, err
	}
	l := analysis.NewLoader(func(path string) (string, bool) {
		if path == modPath {
			return root, true
		}
		rest, ok := strings.CutPrefix(path, modPath+"/")
		return filepath.Join(root, filepath.FromSlash(rest)), ok
	})
	suite := Analyzers()
	for _, dir := range dirs {
		path, err := importPath(root, modPath, dir)
		if err != nil {
			return report, err
		}
		pkg, err := l.Load(path)
		if err != nil {
			return report, fmt.Errorf("%s: %v", dir, err)
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		suppressed, err := l.Run(pkg, suite, func(a *analysis.Analyzer, d analysis.Diagnostic) {
			p := l.Fset.Position(d.Pos)
			file := p.Filename
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			report.Diagnostics = append(report.Diagnostics, finding{
				File: file, Line: p.Line, Col: p.Column, Analyzer: a.Name, Message: d.Message,
			})
		})
		if err != nil {
			return report, fmt.Errorf("%s: %v", dir, err)
		}
		report.AllowSuppressed += suppressed
	}
	sort.SliceStable(report.Diagnostics, func(i, j int) bool {
		a, b := report.Diagnostics[i], report.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return report, nil
}

// readModule locates the enclosing go.mod and returns the module root and
// module path.
func readModule() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		if _, statErr := os.Stat(filepath.Join(dir, "go.mod")); statErr == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "module" {
			return dir, fields[1], nil
		}
	}
	return "", "", fmt.Errorf("no module directive in %s", filepath.Join(dir, "go.mod"))
}

// importPath maps a directory of the module to its import path.
func importPath(root, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// expandPatterns resolves directory arguments, expanding trailing /...
// wildcards. As in the go tool's package matching, a wildcard skips
// testdata, dot- and underscore-directories, and stops at any
// subdirectory holding a go.mod: that is another module.
func expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, wild := strings.CutSuffix(pat, "...")
		base = filepath.Clean(base)
		if !wild {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
