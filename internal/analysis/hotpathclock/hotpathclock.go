// Package hotpathclock forbids raw wall-clock reads on the per-frame hot
// path. Per-element `time.Now()` was the dominant monitoring overhead
// (+68% before the stride; bench/'s metadata.monitored_ratio is the cell
// that watches it now); the sanctioned
// patterns are the injected telemetry.Clock and the 1-in-16 stride
// (flight's strideEvery), under which one clock reading is amortised over
// strideEvery elements.
//
// A function is "hot" when it is a ProcessBatch, TransferBatch or Drain
// method of a scoped package (or one of the per-element edge adapters,
// Process and Transfer, or an ordered operator's per-element body,
// processOne), or is statically reachable from one within the same
// package. Inside hot functions, calls to time.Now / time.Since /
// time.Until are flagged unless:
//
//   - the call sits lexically inside an if-statement whose condition
//     mentions a stride identifier (`strideEvery`, `strideHits`, any name
//     containing "stride"): the sanctioned amortised sample;
//   - the enclosing function is a `Now()` method returning time.Time — by
//     construction a Clock implementation, which is the injection point;
//   - an explicit `//pipesvet:allow hotpathclock` directive covers it.
package hotpathclock

import (
	"go/ast"
	"go/types"
	"strings"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "hotpathclock"

// Analyzer is the hotpathclock pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbids raw time.Now/time.Since on operator ProcessBatch/TransferBatch/Drain paths outside the injected telemetry.Clock and the 1-in-16 stride (strideEvery)",
	Run:  run,
}

// scope is the set of package-path suffixes whose element flow is the hot
// path. telemetry and telemetry/flight are scoped because histogram
// observation and the instrumentation block sit directly on
// TransferBatch/ProcessBatch paths; their sanctioned clock reads go through
// telemetry.Clock, behind the stride.
var scope = []string{"ops", "pubsub", "aggregate", "metadata", "sweeparea", "temporal", "xds", "telemetry", "flight"}

// hotRoots are the method names that begin a per-frame code path: the
// frame method every node implements, the publish call and the buffer
// drain — a clock read there repeats per frame, which at small frame
// sizes is per-element cost in disguise — plus the per-element edge
// adapters, Process (a user sink behind the Subscribe-time wrapper) and
// Transfer (a one-element frame), and processOne, the per-element body an
// ordered operator hands its core: the core calls it through a function
// field, which no static call edge follows.
var hotRoots = map[string]bool{
	"ProcessBatch": true, "TransferBatch": true, "Drain": true,
	"Process": true, "Transfer": true, "processOne": true,
}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name) // before the scope check: directive misuse is validated everywhere
	if !vetutil.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	files := vetutil.SourceFiles(pass)
	if len(files) == 0 {
		return nil, nil
	}
	graph := vetutil.NewCallGraph(pass)

	var roots []*types.Func
	for fn, fd := range graph.Decls {
		if fd.Recv != nil && hotRoots[fn.Name()] {
			roots = append(roots, fn)
		}
	}
	hot := graph.Reachable(roots)

	for fn, fd := range graph.Decls {
		if !hot[fn] || isClockMethod(fn) {
			continue
		}
		fn := fn
		walk(fd.Body, nil, func(call *ast.CallExpr, guards []ast.Expr) {
			callee := vetutil.StaticCallee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "time" {
				return
			}
			switch callee.Name() {
			case "Now", "Since", "Until":
			default:
				return
			}
			if allow.Allowed(call.Pos()) || underStrideGuard(guards) {
				return
			}
			pass.Reportf(call.Pos(),
				"raw time.%s on the hot path (reachable from %s): read the injected telemetry.Clock or amortise under the 1-in-16 stride, strideEvery (OBSERVABILITY.md)",
				callee.Name(), fn.Name())
		})
	}
	return nil, nil
}

// isClockMethod reports whether fn is a `Now() time.Time` method — a
// Clock implementation, which is where the single sanctioned real-time
// read lives.
func isClockMethod(fn *types.Func) bool {
	if fn.Name() != "Now" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named := vetutil.NamedOf(sig.Results().At(0).Type())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// walk traverses body keeping the stack of enclosing if-conditions, and
// invokes f for every call expression with the active guard set.
func walk(n ast.Node, guards []ast.Expr, f func(*ast.CallExpr, []ast.Expr)) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.IfStmt:
		if n.Init != nil {
			walk(n.Init, guards, f)
		}
		walk(n.Cond, guards, f)
		inner := append(guards, n.Cond)
		walk(n.Body, inner, f)
		if n.Else != nil {
			// The else branch is the *complement* of the guard: a stride
			// guard does not sanction it.
			walk(n.Else, guards, f)
		}
		return
	case *ast.CallExpr:
		f(n, guards)
		// Fall through to arguments.
	}
	// Generic traversal one level deep, preserving the guard stack.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		switch child.(type) {
		case *ast.IfStmt, *ast.CallExpr:
			walk(child, guards, f)
			return false
		}
		return true
	})
}

// underStrideGuard reports whether any enclosing if-condition references
// a stride identifier.
func underStrideGuard(guards []ast.Expr) bool {
	for _, g := range guards {
		found := false
		ast.Inspect(g, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if strings.Contains(strings.ToLower(id.Name), "stride") {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
