// Package atomicmix enforces a single access discipline per shared word.
// The instrumentation blocks, the telemetry registry and the flight ring
// all keep hot counters that the transfer path updates while observers read
// them concurrently; those words are safe only if *every* access goes
// through sync/atomic. A lone plain read ("it's just a counter, a torn
// read is fine") is how the seqlock-era bugs started: the race detector
// only fires when a stress schedule actually interleaves the two sites,
// and the flight recorder's 1-in-16 stride makes that interleaving rare.
//
// Two rules, checked per package in the scoped packages:
//
//   - mixed discipline: if any field or package variable is accessed via a
//     function-style sync/atomic call (atomic.AddInt64(&x.f, ...),
//     atomic.LoadUint64(&v), ...), every other access to the same variable
//     must also be atomic — plain reads, writes, ++/--, and composite
//     literal initialisation are flagged;
//   - value bypass: assignments that copy or overwrite a value of an
//     atomic.* struct type (atomic.Int64, atomic.Uint64, atomic.Pointer,
//     ...) bypass the .Load/.Store methods and are flagged. Taking the
//     field's address or calling its methods is, of course, the intended
//     use.
//
// The idiomatic fix for both is to migrate the field to the matching
// atomic.* type: the type system then enforces the discipline and the
// analyzer's mixed-discipline rule retires for that field.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "atomicmix"

// Analyzer is the atomicmix pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "flags plain reads/writes of fields that are elsewhere accessed via sync/atomic, and value copies of atomic.* typed fields",
	Run:  run,
}

// scope covers the packages whose counters are concurrently observed: the
// named counters (metadata), the metrics registry (telemetry), the
// per-node blocks and the ring (telemetry/flight), the hand-off buffers
// and sinks (pubsub) and the scheduler (sched).
var scope = []string{"metadata", "telemetry", "flight", "pubsub", "sched"}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name) // before the scope check: directive misuse is validated everywhere
	if !vetutil.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	files := vetutil.SourceFiles(pass)
	if len(files) == 0 {
		return nil, nil
	}
	info := pass.TypesInfo

	// Pass 1: collect every variable whose address feeds a function-style
	// sync/atomic call, and remember the identifiers inside those calls so
	// pass 2 does not report the atomic sites themselves.
	atomicVars := map[types.Object]string{} // var -> example atomic function name
	atomicUse := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := vetutil.StaticCallee(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // method on an atomic.* type: the typed discipline
			}
			for _, arg := range call.Args {
				ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				var id *ast.Ident
				switch x := ast.Unparen(ue.X).(type) {
				case *ast.SelectorExpr:
					id = x.Sel
				case *ast.Ident:
					id = x
				default:
					continue
				}
				if v, ok := info.Uses[id].(*types.Var); ok {
					atomicUse[id] = true
					if _, seen := atomicVars[v]; !seen {
						atomicVars[v] = fn.Name()
					}
				}
			}
			return true
		})
	}

	// Pass 2: every other mention of a tracked variable is a plain access.
	// Identifier resolution covers selector fields (x.Sel), bare package
	// vars, and struct-literal keys alike.
	if len(atomicVars) > 0 {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || atomicUse[id] {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok {
					return true
				}
				fn, tracked := atomicVars[v]
				if !tracked || allow.Allowed(id.Pos()) {
					return true
				}
				pass.Reportf(id.Pos(),
					"%s mixes sync/atomic and plain access in this package (atomic.%s elsewhere): a plain read or write here races with the atomic sites — use the atomic API at every access, or migrate the field to an atomic.* type",
					id.Name, fn)
				return true
			})
		}
	}

	// Value-bypass rule: copying or overwriting an atomic.* struct value
	// sidesteps .Load/.Store. Checked on assignments and var initialisers;
	// one diagnostic per offending lhs/rhs pair.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if isAtomicValueExpr(info, n.Lhs[i]) || isAtomicValueExpr(info, n.Rhs[i]) {
						if !allow.Allowed(n.Pos()) {
							pass.Reportf(n.Pos(),
								"assignment copies an atomic value: atomic.* fields are accessed through their methods (.Load/.Store/.Add) — a struct copy bypasses the discipline and tears under concurrent writers")
						}
					}
				}
			case *ast.ValueSpec:
				for _, val := range n.Values {
					if isAtomicValueExpr(info, val) && !allow.Allowed(n.Pos()) {
						pass.Reportf(n.Pos(),
							"initialiser copies an atomic value: atomic.* fields are accessed through their methods (.Load/.Store/.Add) — a struct copy bypasses the discipline and tears under concurrent writers")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isAtomicValueExpr reports whether e is a variable or field of a
// sync/atomic struct type used as a value (not a pointer to one, not a
// type name, not a method call result).
func isAtomicValueExpr(info *types.Info, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return false
	}
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || !tv.IsValue() {
		return false
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}
