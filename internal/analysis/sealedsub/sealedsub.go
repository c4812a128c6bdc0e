// Package sealedsub enforces the registration-sealing rule
// (CONCURRENCY.md §sched): task registration is sealed at
// `Scheduler.Start` — `Add`/`AddTo` panic once workers run — and graph
// topology changes (`Subscribe`/`Unsubscribe`) after Start are a
// dynamic-plan-change operation that must be deliberate, not an ordering
// accident in setup code.
//
// Within each function body the analyzer finds calls to a `Start` method
// on a scheduler (a type named Scheduler in a sched package) and flags
// any later call, in source order, to:
//
//   - `Add`/`AddTo` on a scheduler — these panic at runtime; the
//     analyzer moves the failure to compile time;
//   - `Subscribe`/`Unsubscribe` on a pubsub source — legal for the
//     pub/sub layer but a mid-run plan change; sanctioned sites say so
//     with `//pipesvet:allow sealedsub <why>`.
//
// The check is intraprocedural on purpose: the sealing bug it targets is
// misordered setup code, where registration drifts below Start during a
// refactor.
package sealedsub

import (
	"go/ast"
	"go/token"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "sealedsub"

// Analyzer is the sealedsub pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "flags scheduler Add/AddTo and pubsub Subscribe calls placed after sched.Start in the same function (registration is sealed at Start, CONCURRENCY.md)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name)
	files := vetutil.SourceFiles(pass)
	if len(files) == 0 {
		return nil, nil
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, allow, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, allow *vetutil.Allower, fd *ast.FuncDecl) {
	var startPos token.Pos = token.NoPos
	// First sweep: earliest Scheduler.Start call in this body.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSchedulerMethod(pass, call, "Start") && (startPos == token.NoPos || call.Pos() < startPos) {
			startPos = call.Pos()
		}
		return true
	})
	if startPos == token.NoPos {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= startPos || allow.Allowed(call.Pos()) {
			return true
		}
		switch {
		case isSchedulerMethod(pass, call, "Add"), isSchedulerMethod(pass, call, "AddTo"):
			pass.Reportf(call.Pos(),
				"scheduler registration after Start: Add/AddTo panic once workers run — register every task before starting the scheduler (CONCURRENCY.md)")
		case isPubsubMethod(pass, call, "Subscribe"), isPubsubMethod(pass, call, "Unsubscribe"):
			pass.Reportf(call.Pos(),
				"graph topology change after sched.Start: subscribing mid-run is a dynamic plan change — move it above Start or mark the site //pipesvet:allow sealedsub <why> (CONCURRENCY.md)")
		}
		return true
	})
}

// isSchedulerMethod reports whether call invokes the named method on a
// scheduler type (a named type Scheduler declared in a sched package).
func isSchedulerMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	named := vetutil.NamedOf(tv.Type)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Name() == "Scheduler" &&
		vetutil.InScope(named.Obj().Pkg().Path(), "sched")
}

// isPubsubMethod reports whether call invokes the named method with a
// receiver whose type lives in (or embeds a base from) a pubsub package.
func isPubsubMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		// Qualified call or conversion, not a method.
		return false
	}
	fn := s.Obj()
	return fn.Pkg() != nil && vetutil.InScope(fn.Pkg().Path(), "pubsub")
}
