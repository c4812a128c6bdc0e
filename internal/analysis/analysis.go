// Package analysis is the pipesvet framework: the small slice of
// golang.org/x/tools/go/analysis the suite uses (Analyzer, Pass,
// Diagnostic), plus the one offline loader and pass runner that every
// driver shares — cmd/pipesvet over the module, analyzertest over fixture
// packages. The analyzers themselves live in the subpackages; each rule
// CONCURRENCY.md and OBSERVABILITY.md mark "mechanically enforced by
// pipesvet:<name>" is one of them. STATIC_ANALYSIS.md documents the suite
// and how to extend it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	Name string // used in diagnostics and //pipesvet:allow directives
	Doc  string
	Run  func(*Pass) (any, error)
}

// Pass is one analyzer applied to one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Suite names the analyzers of this run, in run order: an allow
	// directive naming anything else is a typo.
	Suite []string
	// Suppressed counts the diagnostics allow directives silenced in this
	// pass; Run sums it over the suite.
	Suppressed int
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one typechecked package: its non-test files and their types.
type Package struct {
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and typechecks packages fully offline. Import paths for
// which dirOf returns a directory are loaded from source there; every
// other import resolves from $GOROOT/src through the source importer (no
// export data, no build cache, no network).
type Loader struct {
	Fset  *token.FileSet
	dirOf func(path string) (dir string, ok bool)
	std   types.Importer
	cache map[string]*Package // keyed by directory; nil = no non-test Go files
}

// NewLoader returns a loader resolving local import paths with dirOf.
func NewLoader(dirOf func(path string) (dir string, ok bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		dirOf: dirOf,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*Package{},
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirOf(path); !ok {
		return l.std.Import(path)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("no Go files for %s", path)
	}
	return p.Types, nil
}

// Load parses and typechecks the non-test Go files of the local package
// path. A nil package with a nil error means its directory holds none.
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.dirOf(path)
	if !ok {
		return nil, fmt.Errorf("%s is not a local package", path)
	}
	if p, ok := l.cache[dir]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.cache[dir] = nil
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &Package{Files: files, Types: pkg, Info: info}
	l.cache[dir] = p
	return p, nil
}

// Run applies every analyzer of suite to pkg, in order, handing each
// diagnostic to report along with the analyzer that raised it. It returns
// how many diagnostics //pipesvet:allow directives suppressed.
func (l *Loader) Run(pkg *Package, suite []*Analyzer, report func(*Analyzer, Diagnostic)) (suppressed int, err error) {
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}
	for _, a := range suite {
		pass := &Pass{
			Analyzer:  a,
			Fset:      l.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { report(a, d) },
			Suite:     names,
		}
		if _, err := a.Run(pass); err != nil {
			return suppressed, fmt.Errorf("%s: %w", a.Name, err)
		}
		suppressed += pass.Suppressed
	}
	return suppressed, nil
}
