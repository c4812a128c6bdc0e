// Package lockorder enforces the lock hierarchy documented in
// CONCURRENCY.md §"memory, metadata": the instrumentation substrate's
// statistics mutexes (the flight block's rate estimators, the recorder's
// intern table) are *leaf* locks. An inner lock (operator ProcMu, Buffer/
// SourceBase mutex) may be held while the block records — an operator
// publishes, and so feeds its block's output side, under its own ProcMu —
// so statistics code must never hold a stats mutex while acquiring an
// inner lock, directly or through any call that might. Inverting the order
// is the ABBA deadlock PR 2 fixed in the metadata decorator's Get, when
// the statistics still had a node and a mutex of their own.
//
// Mechanically, for every region where a stats-class mutex is held the
// analyzer flags:
//
//   - acquisition of an inner-class mutex (direct Lock, or a same-package
//     call that transitively performs one — a call-graph walk over the
//     methods that take each lock);
//   - any dynamic (interface) method call: under a leaf lock the callee
//     is unknown code that may take an inner lock, which is precisely how
//     that Get deadlocked against the Buffer flush.
//
// Lock classes come from a built-in table of the repo's synchronisation
// fields plus `//pipesvet:lockclass inner|stats` directives on mutex
// fields, so new code can opt its locks into the hierarchy.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pipes/internal/analysis"

	"pipes/internal/analysis/vetutil"
)

// name is the analyzer name used in diagnostics and allow directives.
const name = "lockorder"

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "flags inner-class lock acquisitions and dynamic calls made while holding a stats-class (leaf) mutex, the ABBA shape of CONCURRENCY.md's inner→stats lock order",
	Run:  run,
}

// class is a level in the documented lock hierarchy.
type class int

const (
	classNone  class = iota
	classInner       // operator/pubsub locks: may be held while calling into stats code
	classStats       // statistics locks: leaves, nothing may be acquired under them
)

func (c class) String() string {
	switch c {
	case classInner:
		return "inner"
	case classStats:
		return "stats"
	}
	return "none"
}

// lockField identifies a classified mutex field: package-path suffix,
// owning named type, field name.
type lockField struct {
	pkg, typ, field string
}

// builtinClasses is the repo's documented hierarchy (CONCURRENCY.md).
var builtinClasses = map[lockField]class{
	{"pubsub", "PipeBase", "ProcMu"}:  classInner,
	{"pubsub", "Buffer", "mu"}:        classInner,
	{"pubsub", "SourceBase", "mu"}:    classInner,
	{"flight", "Recorder", "mu"}:      classStats,
	{"flight", "rateEstimator", "mu"}: classStats,
	{"service", "Service", "mu"}:      classStats,
	{"service", "ResultBuffer", "mu"}: classStats,
}

// lockEvent is one Lock/Unlock call inside a function body.
type lockEvent struct {
	pos      token.Pos
	key      string // textual identity of the lock expression, e.g. "m.mu"
	cls      class
	unlock   bool
	deferred bool
}

// region is a span of a function body during which a classified lock is
// held.
type region struct {
	from, to token.Pos
	key      string
	cls      class
}

func run(pass *analysis.Pass) (any, error) {
	allow := vetutil.NewAllower(pass, name)
	files := vetutil.SourceFiles(pass)
	if len(files) == 0 {
		return nil, nil
	}
	directives := directiveClasses(pass, files)

	classify := func(sel *ast.SelectorExpr) (class, string) {
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return classNone, ""
		}
		field, ok := s.Obj().(*types.Var)
		if !ok || !isMutex(field.Type()) {
			return classNone, ""
		}
		if c, ok := directives[field]; ok {
			return c, types.ExprString(sel)
		}
		// Resolve the struct that declares the field: with embedding
		// (operators embed pubsub.PipeBase) the selection receiver is the
		// outer type, so walk the index path to the declaring struct.
		named := declaringType(s)
		if named == nil || named.Obj().Pkg() == nil {
			return classNone, ""
		}
		path := named.Obj().Pkg().Path()
		for lf, c := range builtinClasses {
			if lf.typ == named.Obj().Name() && lf.field == field.Name() &&
				vetutil.InScope(path, lf.pkg) {
				return c, types.ExprString(sel)
			}
		}
		return classNone, ""
	}

	graph := vetutil.NewCallGraph(pass)

	// Pass 1: which functions directly acquire an inner lock or make a
	// dynamic call, and where each function's lock events are.
	directInner := map[*types.Func]bool{}
	directDynamic := map[*types.Func]bool{}
	events := map[*types.Func][]lockEvent{}
	for fn, fd := range graph.Decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls, key, unlock, isLock := lockCall(call, classify); isLock {
				ev := lockEvent{pos: call.Pos(), key: key, cls: cls, unlock: unlock}
				events[fn] = append(events[fn], ev)
				if cls == classInner && !unlock {
					directInner[fn] = true
				}
				return true
			}
			if vetutil.IsInterfaceCall(pass.TypesInfo, call) {
				directDynamic[fn] = true
			}
			return true
		})
		// A deferred unlock releases at function exit, not at the defer
		// statement: re-mark those events.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ds, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			for i := range events[fn] {
				if events[fn][i].pos >= ds.Pos() && events[fn][i].pos <= ds.End() {
					events[fn][i].deferred = true
				}
			}
			return true
		})
	}

	// Pass 2: transitive summaries over the same-package call graph.
	acquiresInner := closure(graph, directInner)
	makesDynamic := closure(graph, directDynamic)

	// Pass 3: inside every stats-held region, flag inner acquisitions and
	// dynamic calls.
	for fn, fd := range graph.Decls {
		regions := heldRegions(events[fn], fd)
		var stats []region
		for _, r := range regions {
			if r.cls == classStats {
				stats = append(stats, r)
			}
		}
		if len(stats) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			held := holding(stats, call.Pos())
			if held == nil || allow.Allowed(call.Pos()) {
				return true
			}
			if cls, key, unlock, isLock := lockCall(call, classify); isLock {
				if cls == classInner && !unlock {
					pass.Reportf(call.Pos(),
						"acquiring inner-class lock %s while holding stats-class lock %s inverts the documented inner→stats lock order (ABBA deadlock against a publish under the inner lock; CONCURRENCY.md)",
						key, held.key)
				}
				return true
			}
			if vetutil.IsInterfaceCall(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(),
					"dynamic call %s while holding stats-class lock %s: stats mutexes are leaf locks and the callee may acquire an inner lock (ABBA deadlock; CONCURRENCY.md)",
					callLabel(call), held.key)
				return true
			}
			if callee := vetutil.StaticCallee(pass.TypesInfo, call); callee != nil {
				if acquiresInner[callee] {
					pass.Reportf(call.Pos(),
						"call to %s while holding stats-class lock %s: it transitively acquires an inner-class lock, inverting the documented inner→stats order (CONCURRENCY.md)",
						callee.Name(), held.key)
				} else if makesDynamic[callee] {
					pass.Reportf(call.Pos(),
						"call to %s while holding stats-class lock %s: it transitively makes a dynamic call, which may acquire an inner lock under a leaf lock (CONCURRENCY.md)",
						callee.Name(), held.key)
				}
			}
			return true
		})
	}
	return nil, nil
}

// lockCall decodes a call as `<expr>.Lock()` / `<expr>.Unlock()` (or the
// RWMutex variants) on a classified mutex field.
func lockCall(call *ast.CallExpr, classify func(*ast.SelectorExpr) (class, string)) (class, string, bool, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return classNone, "", false, false
	}
	var unlock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return classNone, "", false, false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return classNone, "", false, false
	}
	cls, key := classify(inner)
	if cls == classNone {
		return classNone, "", false, false
	}
	return cls, key, unlock, true
}

// heldRegions turns a function's ordered lock events into held spans: a
// Lock opens a region that the next non-deferred Unlock of the same lock
// expression closes; a deferred (or missing) Unlock holds to the end of
// the body.
func heldRegions(evs []lockEvent, fd *ast.FuncDecl) []region {
	var out []region
	for i, ev := range evs {
		if ev.unlock {
			continue
		}
		to := fd.Body.End()
		for _, u := range evs[i+1:] {
			if u.unlock && !u.deferred && u.key == ev.key && u.pos > ev.pos {
				to = u.pos
				break
			}
		}
		out = append(out, region{from: ev.pos, to: to, key: ev.key, cls: ev.cls})
	}
	return out
}

// holding returns the stats region containing pos, if any. The region's
// own Lock/Unlock calls are excluded by position.
func holding(regions []region, pos token.Pos) *region {
	for i := range regions {
		if pos > regions[i].from && pos < regions[i].to {
			return &regions[i]
		}
	}
	return nil
}

// closure propagates a direct property up the call graph: f has it if any
// function reachable from f does.
func closure(g *vetutil.CallGraph, direct map[*types.Func]bool) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for fn := range g.Decls {
		for reached := range g.Reachable([]*types.Func{fn}) {
			if direct[reached] {
				out[fn] = true
				break
			}
		}
	}
	return out
}

// directiveClasses collects `//pipesvet:lockclass inner|stats` directives:
// the directive names the class of the mutex field declared on the same
// line or the line below the comment.
func directiveClasses(pass *analysis.Pass, files []*ast.File) map[*types.Var]class {
	out := map[*types.Var]class{}
	for _, f := range files {
		// Gather directive lines first.
		dirs := map[int]class{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//pipesvet:lockclass")
				if !ok {
					continue
				}
				var cls class
				switch strings.TrimSpace(rest) {
				case "inner":
					cls = classInner
				case "stats":
					cls = classStats
				default:
					continue
				}
				dirs[pass.Fset.Position(c.Pos()).Line] = cls
			}
		}
		if len(dirs) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				line := pass.Fset.Position(field.Pos()).Line
				cls, ok := dirs[line]
				if !ok {
					cls, ok = dirs[line-1]
				}
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isMutex(v.Type()) {
						out[v] = cls
					}
				}
			}
			return true
		})
	}
	return out
}

// declaringType walks a field selection's index path to the named struct
// type that actually declares the selected field, seeing through embedded
// fields and pointers.
func declaringType(s *types.Selection) *types.Named {
	t := s.Recv()
	index := s.Index()
	var owner *types.Named
	for _, idx := range index {
		owner = vetutil.NamedOf(t)
		var st *types.Struct
		switch u := t.Underlying().(type) {
		case *types.Struct:
			st = u
		case *types.Pointer:
			st, _ = u.Elem().Underlying().(*types.Struct)
			if owner == nil {
				owner = vetutil.NamedOf(u.Elem())
			}
		}
		if st == nil || idx >= st.NumFields() {
			return nil
		}
		t = st.Field(idx).Type()
	}
	return owner
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	named := vetutil.NamedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

// callLabel renders a short label for a dynamic call site.
func callLabel(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return fmt.Sprintf("%s.%s", types.ExprString(sel.X), sel.Sel.Name)
	}
	return types.ExprString(call.Fun)
}
