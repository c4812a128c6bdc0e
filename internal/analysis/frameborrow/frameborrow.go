// Package frameborrow enforces the temporal.Batch borrow ownership rule
// (SEMANTICS.md §3.7): a frame received as a parameter is only borrowed
// for the duration of the call. The subscriber may read it and forward it
// further downstream synchronously, but the producer reuses the backing
// array as scratch for its next frame the moment the publishing
// TransferBatch returns — so retaining the slice, a subslice, or a
// pointer to an element past the call is a use-after-reuse data race that
// the frame-size invariance harness can only catch probabilistically (a
// stress schedule has to overwrite the retained storage before the
// snapshot oracle looks).
//
// In the frame-handling packages the analyzer treats every parameter of
// type temporal.Batch as borrowed and flags, within the function body:
//
//   - storing the parameter, a subslice of it, or any local alias of
//     either into a struct field, an element of a field, or a
//     package-level variable;
//   - storing a pointer to a frame element (&b[i]) the same way;
//   - capturing an alias inside a function literal that escapes the call
//     (returned, or stored into a field or package-level variable).
//
// A terminal sink borrows the values too, not just the frame, unless it
// declares pubsub.ValueKeeper (a KeepsValues method): a lending publisher
// refills them once TransferBatch returns. So in the ProcessBatch of
// every type that is not a Source (no Subscribe, Unsubscribe and
// Subscriptions methods) and declares no KeepsValues, the analyzer also flags storing what reaches into a
// value — an element (b[i], a range variable over b), its Value, a type
// assertion of that, a map, slice, pointer or interface read from it, or
// an append or composite literal holding any of these — into a field, a
// field's element (as element or as map key) or a package-level
// variable.
//
// Copies do not propagate the frame taint: `append(dst, b...)` aliases
// dst, not b, so the idiomatic scratch compaction
// (`o.scratch = append(o.scratch[:0], b...)`, PipeBase.Emit) and the
// Buffer's copy at enqueue are both clean (a borrower's copied elements
// still carry the lent values). Forwarding the frame to another call
// (`s.TransferBatch(b)`, `sink.ProcessBatch(b, i)`) is clean too: the
// borrow nests through synchronous hops.
package frameborrow

import (
	"go/ast"
	"go/token"
	"go/types"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "frameborrow"

// Analyzer is the frameborrow pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "flags temporal.Batch frame storage, and a borrowing sink's element values, retained past the borrowing call (SEMANTICS.md §3.7): frames must be copied, not kept",
	Run:  run,
}

// scope is where frames are consumed and forwarded — every package that
// defines a sink: the operators, the checkpoint taps and sink, pubsub,
// the service result sink, the remote writers, the differential
// harness's sink and the per-element sinks of the adapters, cursors and
// archive — plus the telemetry packages they call into with frames in
// hand (the flight block delivers and re-frames them).
var scope = []string{"ops", "ft", "pubsub", "telemetry", "flight", "aggregate", "service", "remote",
	"harness", "adapter", "cursor", "archive"}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name) // before the scope check: directive misuse is validated everywhere
	if !vetutil.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, f := range vetutil.SourceFiles(pass) {
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

// isBatchType reports whether t is the temporal.Batch named slice type.
func isBatchType(t types.Type) bool {
	named := vetutil.NamedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Name() == "Batch" &&
		vetutil.InScope(named.Obj().Pkg().Path(), "temporal")
}

// checkFunc analyzes one function whose parameters may include borrowed
// frames.
func checkFunc(pass *analysis.Pass, allow *vetutil.Allower, fd *ast.FuncDecl) {
	// borrowed is the may-alias set: objects that may share the borrowed
	// frame's backing storage (the Batch parameters themselves plus local
	// variables assigned from them, transitively, including element
	// pointers taken with &b[i]).
	borrowed := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, pname := range field.Names {
			obj := pass.TypesInfo.Defs[pname]
			if obj != nil && isBatchType(obj.Type()) {
				borrowed[obj] = true
			}
		}
	}
	if len(borrowed) == 0 {
		return
	}

	info := pass.TypesInfo

	// aliases reports whether e may reference the borrowed backing array:
	// the parameter itself, a slice of it, an append whose destination is
	// an alias (append only copies the *appended* elements), or a pointer
	// into it. Index expressions (b[i]) are element value copies and do
	// not alias.
	var aliases func(e ast.Expr) bool
	aliases = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return borrowed[info.Uses[e]]
		case *ast.SliceExpr:
			return aliases(e.X)
		case *ast.UnaryExpr:
			// &b[i]: a pointer into the frame's backing array.
			if e.Op.String() == "&" {
				if ix, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
					return aliases(ix.X)
				}
			}
			return false
		case *ast.CallExpr:
			// append(dst, src...)'s result aliases dst — the spread copies
			// *elements*, which is exactly the sanctioned compaction. But
			// append(frames, b) without the spread stores the slice header
			// itself, so non-ellipsis appended arguments taint the result.
			// Conversions (temporal.Batch(x)) alias their operand.
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
				if aliases(e.Args[0]) {
					return true
				}
				if e.Ellipsis == token.NoPos {
					for _, a := range e.Args[1:] {
						if aliases(a) {
							return true
						}
					}
				}
				return false
			}
			if len(e.Args) == 1 {
				if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
					return aliases(e.Args[0])
				}
			}
			return false
		default:
			return false
		}
	}

	// Grow the may-alias set to a fixpoint over local assignments: the
	// set is flow-insensitive (a variable ever assigned an alias stays
	// tainted), which over-approximates loops and conditional paths — the
	// safe direction for a use-after-reuse rule.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break // multi-value RHS: calls never return borrows here
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !aliases(as.Rhs[i]) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !borrowed[obj] {
					borrowed[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// escapes reports whether storing into lhs retains the value past the
	// call: a struct field (through any base), an element or subslice of
	// one, or a package-level variable. Writes to plain locals are the
	// alias propagation handled above.
	var escapes func(lhs ast.Expr) bool
	escapes = func(lhs ast.Expr) bool {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				return true
			}
			// Qualified package-level var (pkg.Var).
			if v, ok := info.Uses[lhs.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return true
			}
			return false
		case *ast.IndexExpr:
			return escapes(lhs.X)
		case *ast.StarExpr:
			// *p = b where p points outside the frame: conservatively only
			// flagged when p itself is a field or package var.
			return escapes(lhs.X)
		case *ast.Ident:
			v, ok := info.Uses[lhs].(*types.Var)
			return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
		default:
			return false
		}
	}

	report := func(n ast.Node, what string) {
		if allow.Allowed(n.Pos()) {
			return
		}
		pass.Reportf(n.Pos(),
			"%s retains the borrowed frame's backing storage past the call: the producer reuses it after TransferBatch returns — copy the elements you keep (append into owned scratch) or mark a reviewed exception (SEMANTICS.md §3.7)",
			what)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if aliases(n.Rhs[i]) && escapes(lhs) {
					report(n, "storing a temporal.Batch view")
				}
			}
		case *ast.CompositeLit:
			// queued{b: own} style literals: a field initialised with an
			// alias escapes when the literal itself is stored — flagging
			// the literal element directly is the conservative whole.
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if aliases(kv.Value) {
					report(kv, "building a value that embeds a temporal.Batch view")
				}
			}
		}
		return true
	})

	// Escaping closures: find func literals that capture an alias and are
	// returned or stored into escaping locations.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var lits []ast.Expr
		switch n := n.(type) {
		case *ast.ReturnStmt:
			lits = n.Results
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && escapes(lhs) {
					lits = append(lits, n.Rhs[i])
				}
			}
		default:
			return true
		}
		for _, e := range lits {
			fl, ok := ast.Unparen(e).(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(fl.Body, func(inner ast.Node) bool {
				id, ok := inner.(*ast.Ident)
				if !ok || !borrowed[info.Uses[id]] {
					return true
				}
				report(id, "a closure escaping the call captures a temporal.Batch view and")
				return true
			})
		}
		return true
	})

	if borrowsValues(pass, fd) {
		checkBorrowedValues(pass, allow, fd, aliases, escapes)
	}
}

// borrowsValues reports whether fd is the ProcessBatch of a type that
// borrows lent values (pubsub's Subscribe rule): not a Source, no
// KeepsValues declaration.
func borrowsValues(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Name.Name != "ProcessBatch" {
		return false
	}
	recv := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if recv == nil {
		return false
	}
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	has := func(method string) bool {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, method)
		_, ok := obj.(*types.Func)
		return ok
	}
	source := has("Subscribe") && has("Unsubscribe") && has("Subscriptions")
	return !source && !has("KeepsValues")
}

// shares reports whether a value of type t may share storage with what
// it was read from: a map, a slice, a pointer, or an interface that may
// hold one.
func shares(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer, *types.Interface:
		return true
	}
	return false
}

// checkBorrowedValues flags a borrowing sink's ProcessBatch keeping what
// reaches into a lent value; aliases and escapes are checkFunc's frame
// alias test and retention test.
func checkBorrowedValues(pass *analysis.Pass, allow *vetutil.Allower, fd *ast.FuncDecl,
	aliases func(ast.Expr) bool, escapes func(ast.Expr) bool) {
	info := pass.TypesInfo
	// lent is the may-reach set: locals holding an element of the frame
	// or something read from an element's value.
	lent := map[types.Object]bool{}
	var reaches func(e ast.Expr) bool
	reaches = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return lent[info.Uses[e]]
		case *ast.IndexExpr:
			// b[i] is an element; x[k] of a lent map or slice is part of
			// the value when it may be a reference itself.
			return aliases(e.X) || reaches(e.X) && shares(info.TypeOf(e))
		case *ast.SelectorExpr:
			// e.Value, and any field of a value that may be a reference;
			// scalars read out (e.Start, a struct's int) are copies.
			return reaches(e.X) && shares(info.TypeOf(e))
		case *ast.TypeAssertExpr:
			return reaches(e.X) && shares(info.TypeOf(e))
		case *ast.SliceExpr:
			return reaches(e.X)
		case *ast.StarExpr:
			return reaches(e.X) && shares(info.TypeOf(e))
		case *ast.UnaryExpr:
			return e.Op == token.AND && reaches(e.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				for i, a := range e.Args {
					if reaches(a) || i > 0 && e.Ellipsis != token.NoPos && aliases(a) {
						return true
					}
				}
				return false
			}
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				return reaches(e.Args[0])
			}
			return false
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if reaches(el) {
					return true
				}
			}
			return false
		}
		return false
	}
	mark := func(id ast.Expr) bool {
		ident, ok := ast.Unparen(id).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[ident]
		if obj == nil {
			obj = info.Uses[ident]
		}
		if obj == nil || lent[obj] {
			return false
		}
		lent[obj] = true
		return true
	}
	// The same flow-insensitive fixpoint as the frame aliases, over
	// assignments and range statements.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && reaches(n.Rhs[i]) && mark(lhs) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if n.Value == nil {
					break
				}
				if aliases(n.X) || reaches(n.X) && shares(info.TypeOf(n.Value)) {
					if mark(n.Value) {
						changed = true
					}
				}
			}
			return true
		})
	}
	report := func(n ast.Node) {
		if allow.Allowed(n.Pos()) {
			return
		}
		pass.Reportf(n.Pos(),
			"storing a lent element value retains it past the call: this sink borrows lent values, so its publisher refills the value once TransferBatch returns — keep a copy, or declare KeepsValues (SEMANTICS.md §3.7)")
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			if reaches(as.Rhs[i]) && escapes(lhs) {
				report(as)
				continue
			}
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && reaches(ix.Index) && escapes(ix.X) {
				report(as) // the value kept as a map key
			}
		}
		return true
	})
}
