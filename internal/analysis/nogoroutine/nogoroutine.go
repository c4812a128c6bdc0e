// Package nogoroutine enforces the single-owner execution model
// (CONCURRENCY.md §"What a new operator author must do"): operators are
// single-threaded objects driven by scheduler task activations, so
// operator code must not spawn goroutines or block on channels — work
// that crosses a scheduling boundary goes through a pubsub.Buffer
// registered as a task.
//
// In the operator packages (ops, aggregate, sweeparea, pubsub, ft) the
// analyzer flags `go` statements, channel sends and receives, select
// statements and `range` over a channel. The scheduler, hand-off buffer
// internals and telemetry server are outside the scope by package: those
// *are* the sanctioned concurrency boundary. The checkpoint manager's
// background write loop (FAULT_TOLERANCE.md) is the one reviewed
// exception inside ft, marked with //pipesvet:allow directives.
package nogoroutine

import (
	"go/ast"
	"go/token"
	"go/types"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "nogoroutine"

// Analyzer is the nogoroutine pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "flags goroutine launches and channel operations inside single-owner operator packages (CONCURRENCY.md)",
	Run:  run,
}

// scope: operator implementation packages, plus the control-plane
// service whose graph-facing sink must never block the scheduler. sched
// and telemetry are the sanctioned concurrent machinery and
// deliberately absent.
var scope = []string{"ops", "aggregate", "sweeparea", "pubsub", "ft", "service"}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name) // before the scope check: directive misuse is validated everywhere
	if !vetutil.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	const contract = "operators are single-owner; cross scheduling boundaries with a pubsub.Buffer task, not ad-hoc concurrency (CONCURRENCY.md)"

	for _, f := range vetutil.SourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !allow.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "goroutine launched inside an operator package: %s", contract)
				}
			case *ast.SendStmt:
				if !allow.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "channel send inside an operator package: %s", contract)
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !allow.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "channel receive inside an operator package: %s", contract)
				}
			case *ast.SelectStmt:
				if !allow.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "select statement inside an operator package: %s", contract)
				}
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !allow.Allowed(n.Pos()) {
						pass.Reportf(n.Pos(), "range over a channel inside an operator package: %s", contract)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
