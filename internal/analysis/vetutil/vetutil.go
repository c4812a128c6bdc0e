// Package vetutil holds the plumbing shared by the pipesvet analyzers:
// package scoping by import-path suffix, `//pipesvet:allow` suppression
// directives, and the static same-package call graph the contract checks
// walk (CONCURRENCY.md rules are stated per operator method, but a
// violation is just as real two helper calls deep).
package vetutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"pipes/internal/analysis"
)

// InScope reports whether a package import path matches one of the given
// path suffixes: either the whole path equals the suffix or the path ends
// with "/"+suffix. Matching by suffix keeps the analyzers applicable both
// to the real module ("pipes/internal/ops") and to test fixtures
// ("fixturemod/ops", "ops").
func InScope(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file. The pipesvet
// contracts govern production element flow; tests deliberately poke at
// operators outside the scheduler.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// SourceFiles returns the non-test files of the pass.
func SourceFiles(pass *analysis.Pass) []*ast.File {
	out := make([]*ast.File, 0, len(pass.Files))
	for _, f := range pass.Files {
		if !IsTestFile(pass.Fset, f.Package) {
			out = append(out, f)
		}
	}
	return out
}

// Allower answers whether a position is covered by an explicit
// `//pipesvet:allow <analyzer> <reason>` directive. A directive suppresses
// diagnostics of that analyzer on its own line and on the line directly
// below it (the usual "comment above the statement" placement). Allow
// directives are deliberate, reviewable suppressions: the analyzers are
// conservative approximations of CONCURRENCY.md, and the rare sanctioned
// exception must say in the source why that specific site is sound — a
// directive with no reason text is rejected (it does not suppress, and is
// itself reported), so the mandatory-reason practice STATIC_ANALYSIS.md
// states is enforced mechanically rather than by review.
type Allower struct {
	pass  *analysis.Pass
	lines map[string]map[int]bool // filename -> line with a directive
}

// NewAllower scans the pass's files for allow directives naming the given
// analyzer, and validates directive well-formedness as it goes: a
// directive naming this analyzer without a reason is reported and ignored;
// a directive naming no analyzer at all, or one that is not in the run's
// suite, is reported once, by the suite's first analyzer (every analyzer
// scans the same comments, so exactly one speaks for all of them). Call
// it before any scope check so directive misuse is caught in every
// package, not just the packages a given analyzer inspects.
func NewAllower(pass *analysis.Pass, analyzer string) *Allower {
	a := &Allower{pass: pass, lines: map[string]map[int]bool{}}
	reporter := len(pass.Suite) > 0 && pass.Suite[0] == analyzer
	for _, f := range pass.Files {
		validate := !IsTestFile(pass.Fset, f.Package)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//pipesvet:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					if validate && reporter {
						pass.Reportf(c.Pos(), "pipesvet:allow directive names no analyzer: write //pipesvet:allow <analyzer> <why this site is sound>")
					}
					continue
				}
				if fields[0] != analyzer {
					if validate && reporter && !slices.Contains(pass.Suite, fields[0]) {
						pass.Reportf(c.Pos(), "pipesvet:allow directive names unknown analyzer %q: the suite has no such rule, so this suppression does nothing (see STATIC_ANALYSIS.md for the analyzer list)", fields[0])
					}
					continue
				}
				if len(fields) < 2 {
					if validate {
						pass.Reportf(c.Pos(), "pipesvet:allow %s directive has no reason text and is ignored: state why this specific site is sound (//pipesvet:allow %s <why>)", analyzer, analyzer)
					}
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := a.lines[p.Filename]
				if m == nil {
					m = map[int]bool{}
					a.lines[p.Filename] = m
				}
				m[p.Line] = true
			}
		}
	}
	return a
}

// Allowed reports whether pos is suppressed by a directive on the same
// line or the line above. Each analyzer asks once per candidate
// diagnostic, so every hit counts as one suppressed finding of the pass.
func (a *Allower) Allowed(pos token.Pos) bool {
	p := a.pass.Fset.Position(pos)
	m := a.lines[p.Filename]
	hit := m != nil && (m[p.Line] || m[p.Line-1])
	if hit {
		a.pass.Suppressed++
	}
	return hit
}

// CallGraph is the static, same-package call graph: edges follow direct
// (non-interface) calls between functions and methods declared in the
// analyzed package. Interface dispatch and cross-package calls are not
// edges; analyzers that care about them handle those call sites
// explicitly.
type CallGraph struct {
	// Decls maps each declared function object to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Callees lists the same-package functions each function calls
	// directly.
	Callees map[*types.Func][]*types.Func
}

// NewCallGraph builds the call graph over the pass's non-test files.
func NewCallGraph(pass *analysis.Pass) *CallGraph {
	g := &CallGraph{
		Decls:   map[*types.Func]*ast.FuncDecl{},
		Callees: map[*types.Func][]*types.Func{},
	}
	for _, f := range SourceFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Decls[obj] = fd
		}
	}
	for obj, fd := range g.Decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := StaticCallee(pass.TypesInfo, call); callee != nil {
				if _, local := g.Decls[callee]; local {
					g.Callees[obj] = append(g.Callees[obj], callee)
				}
			}
			return true
		})
	}
	return g
}

// Reachable returns the closure of roots under the call graph's edges
// (including the roots themselves).
func (g *CallGraph) Reachable(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	work := append([]*types.Func(nil), roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		work = append(work, g.Callees[fn]...)
	}
	return seen
}

// Callers returns the inverted edge map.
func (g *CallGraph) Callers() map[*types.Func][]*types.Func {
	inv := map[*types.Func][]*types.Func{}
	for caller, callees := range g.Callees {
		for _, callee := range callees {
			inv[callee] = append(inv[callee], caller)
		}
	}
	return inv
}

// StaticCallee resolves a call expression to the function or method it
// statically invokes, or nil for interface dispatch, func-typed values,
// conversions and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Method value or qualified identifier. An interface method's
		// object is still a *types.Func, so filter dispatch explicitly.
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsInterfaceCall reports whether the call dynamically dispatches through
// an interface method.
func IsInterfaceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv())
}

// NamedOf unwraps pointers and aliases down to the *types.Named beneath,
// or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}
