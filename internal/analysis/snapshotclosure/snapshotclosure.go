// Package snapshotclosure enforces the ft.StateSaver capture contract
// (FAULT_TOLERANCE.md): SnapshotState runs under the checkpoint barrier
// (ProcMu held, element flow paused) and must capture a *copy* of the
// operator's state into locals; the encode closure it returns runs later
// on the checkpoint manager's background writer, off-barrier, while the
// operator is processing again. A closure that reaches back into the
// receiver — a map or slice field, a pointer to state, or a method call —
// therefore reads live mutable state concurrently with ProcessBatch, which is
// both a data race and a torn snapshot (the bytes written mix pre- and
// post-barrier state). The same holds for the encoder a state part's
// capture method returns (internal/ops): it runs on the writer too.
//
// Within each SnapshotState or capture method that returns a func-typed
// result, the analyzer flags references inside the returned closure — or
// any other returned func-valued expression, such as a method value
// bound to the receiver — to:
//
//   - the receiver itself (field reads and method calls alike: any use
//     means the closure escaped the barrier with live state);
//   - locals that alias receiver state rather than copy it: a map, slice,
//     chan or pointer field captured by header assignment (`st := b.q`)
//     shares the underlying storage, so using it off-barrier is the same
//     race with extra steps.
//
// Value copies made in the method body proper are the sanctioned pattern
// — they are evaluated under the barrier — and results of method or
// function calls (`j.out.capture()`, `area.Items()`) are assumed to be
// proper copies: that is exactly the contract those helpers exist to
// satisfy.
package snapshotclosure

import (
	"go/ast"
	"go/token"
	"go/types"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "snapshotclosure"

// Analyzer is the snapshotclosure pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "flags SnapshotState encode closures that reference live receiver state instead of under-barrier copies (FAULT_TOLERANCE.md)",
	Run:  run,
}

// scope: the packages that implement ft.StateSaver — the stateful
// operators — plus the checkpoint machinery itself.
var scope = []string{"ops", "ft"}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name) // before the scope check: directive misuse is validated everywhere
	if !vetutil.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, f := range vetutil.SourceFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !capturing[fd.Name.Name] {
				continue
			}
			if !returnsFunc(pass.TypesInfo, fd) {
				continue
			}
			checkMethod(pass, allow, fd)
		}
	}
	return nil, nil
}

// capturing names the methods that run under the barrier and return
// what runs after it: an operator's SnapshotState and a state part's
// capture.
var capturing = map[string]bool{"SnapshotState": true, "capture": true}

// returnsFunc reports whether fd has at least one func-typed result — the
// encode-closure shape; spellings without one have nothing escaping the
// barrier.
func returnsFunc(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if tv, ok := info.Types[r.Type]; ok {
			if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
				return true
			}
		}
	}
	return false
}

// sharesStorage reports whether a value of type t aliases underlying
// storage when copied by assignment: reference headers and pointers do,
// and so do arrays of them; scalars and flat structs do not.
func sharesStorage(t types.Type) bool {
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Map, *types.Slice, *types.Chan, *types.Pointer:
		return true
	case *types.Array:
		return sharesStorage(u.Elem())
	}
	return false
}

func checkMethod(pass *analysis.Pass, allow *vetutil.Allower, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// The receiver object: any use inside the returned closure is live
	// state reaching past the barrier.
	var recv types.Object
	if names := fd.Recv.List[0].Names; len(names) > 0 {
		recv = info.Defs[names[0]]
	}
	if recv == nil {
		return // unnamed receiver: nothing to capture
	}

	// tainted: the receiver plus locals that alias receiver state. A local
	// is tainted when assigned a receiver field of reference type (header
	// copy), a subslice/element-address of one, or an append seeded from
	// one. Call results are exempt by contract (capture helpers copy).
	tainted := map[types.Object]bool{recv: true}

	var aliasesState, inArrayField func(e ast.Expr) bool
	aliasesState = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			return obj != nil && tainted[obj] && sharesStorage(obj.Type())
		case *ast.SelectorExpr:
			// r.f or tainted.f: a reference-typed field read is a header
			// copy of live state.
			if base, ok := ast.Unparen(e.X).(*ast.Ident); ok && tainted[info.Uses[base]] {
				if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
					return sharesStorage(sel.Type())
				}
			}
			return false
		case *ast.SliceExpr:
			return aliasesState(e.X)
		case *ast.IndexExpr:
			// Element of a tainted container: tainted only if the element
			// itself shares storage (e.g. a []map[K]V element, or a
			// pointer read out of an array field).
			if tv, ok := info.Types[e]; ok && sharesStorage(tv.Type) {
				return aliasesState(e.X)
			}
			return false
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				// &r.f, &r.f[i]: a pointer into receiver storage.
				switch x := ast.Unparen(e.X).(type) {
				case *ast.SelectorExpr:
					if base, ok := ast.Unparen(x.X).(*ast.Ident); ok && tainted[info.Uses[base]] {
						return true
					}
				case *ast.IndexExpr:
					return aliasesState(x.X) || inArrayField(x.X)
				}
			}
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
				if aliasesState(e.Args[0]) {
					return true
				}
				if e.Ellipsis == token.NoPos {
					for _, a := range e.Args[1:] {
						if aliasesState(a) {
							return true
						}
					}
				}
			}
			return false
		default:
			return false
		}
	}

	// inArrayField reports whether e is an array field of a tainted value:
	// its elements live in the receiver's own storage.
	inArrayField = func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || !tainted[info.Uses[base]] {
			return false
		}
		_, isArray := types.Unalias(info.TypeOf(sel)).Underlying().(*types.Array)
		return isArray
	}

	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !aliasesState(as.Rhs[i]) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Collect the func-valued expressions returned — literals, method
	// values, calls that build a func — and follow returned locals to what
	// was assigned to them, so an encoder bound to a variable before
	// `return encode, nil` is checked like a directly returned one. A
	// package-level function needs no check: it reaches only what it is
	// given.
	returnedVars := map[types.Object]bool{}
	var returned []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested literal's returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			t := info.TypeOf(res)
			if t == nil {
				continue
			}
			if _, isFunc := types.Unalias(t).Underlying().(*types.Signature); !isFunc {
				continue
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj, ok := info.Uses[id].(*types.Var); ok {
					returnedVars[obj] = true
				}
				continue
			}
			returned = append(returned, res)
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && returnedVars[obj] {
				returned = append(returned, as.Rhs[i])
			}
		}
		return true
	})

	for _, res := range returned {
		ast.Inspect(res, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || !tainted[obj] || allow.Allowed(id.Pos()) {
				return true
			}
			what := "state aliased from the receiver"
			if obj == recv {
				what = "the receiver"
			}
			pass.Reportf(id.Pos(),
				"encode closure references %s: it runs off-barrier on the checkpoint writer while the operator processes — copy what it needs under the barrier and close over the copy (FAULT_TOLERANCE.md)",
				what)
			return true
		})
	}
}
