// Package traceslot enforces the element-trace propagation contract
// (OBSERVABILITY.md): `temporal.Element.Trace` carries the telemetry
// context of sampled elements through the graph, and every operator that
// constructs or rewrites an element must say what happens to that slot —
// otherwise spans silently drop and latency attribution ends at the
// first join/aggregate/window rewrite.
//
// In the operator packages (ops, aggregate, ft, pubsub) the analyzer
// flags:
//
//   - `temporal.Element{...}` composite literals without an explicit
//     Trace field: the zero value is a silent drop;
//   - calls to `temporal.NewElement` / `temporal.At`, whose results
//     always have a nil Trace.
//
// The sanctioned constructors are `temporal.Derive` (propagates the
// first non-nil trace of the source elements), `Element.WithInterval`,
// or a literal with an explicit `Trace:` value (nil is accepted — an
// *explicit* drop is a reviewed decision, e.g. for elements built from
// evicted state that retained no context).
package traceslot

import (
	"go/ast"
	"go/types"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "traceslot"

// Analyzer is the traceslot pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "requires operator code constructing temporal.Element values to propagate (or explicitly drop) the telemetry trace slot",
	Run:  run,
}

// scope is where the contract applies: packages whose operators rewrite
// elements. pubsub is in scope because its sources and the publish hook
// handle elements on the transfer path, where a dropped trace ends
// attribution for every downstream hop.
var scope = []string{"ops", "aggregate", "ft", "pubsub"}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name) // before the scope check: directive misuse is validated everywhere
	if !vetutil.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	files := vetutil.SourceFiles(pass)

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isElementType(pass.TypesInfo.Types[n].Type) || allow.Allowed(n.Pos()) {
					return true
				}
				if !hasTraceField(n) {
					pass.Reportf(n.Pos(),
						"temporal.Element literal without a Trace field silently drops the telemetry span: propagate it (temporal.Derive, Element.WithInterval) or write Trace: explicitly (OBSERVABILITY.md)")
				}
			case *ast.CallExpr:
				fn := vetutil.StaticCallee(pass.TypesInfo, n)
				if fn == nil || fn.Pkg() == nil || !vetutil.InScope(fn.Pkg().Path(), "temporal") {
					return true
				}
				if (fn.Name() == "NewElement" || fn.Name() == "At") && !allow.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(),
						"temporal.%s zeroes the Trace slot and drops the telemetry span: use temporal.Derive(value, iv, from...) or Element.WithInterval to propagate it (OBSERVABILITY.md)",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// isElementType reports whether t is the temporal Element struct.
func isElementType(t types.Type) bool {
	named := vetutil.NamedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Name() == "Element" &&
		vetutil.InScope(named.Obj().Pkg().Path(), "temporal")
}

// hasTraceField reports whether the literal mentions Trace — either as a
// key or positionally (an unkeyed literal covering every field).
func hasTraceField(lit *ast.CompositeLit) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			// Unkeyed literal: all fields are present by construction.
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Trace" {
			return true
		}
	}
	return false
}
