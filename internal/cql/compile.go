package cql

import (
	"fmt"

	"pipes/internal/aggregate"
)

// Resolver binds a name an expression mentions — a field, qualified or
// not, or an aggregate call by its canonical string — to an accessor over
// the values of one plan edge. What those values are (a source's tuple, a
// join pair, a group-by's group) is the resolver's business; a name the
// edge cannot supply resolves to an accessor that yields nil, never to nil
// itself. internal/optimizer derives a Resolver from every plan edge and
// every group-by (SEMANTICS.md §5).
type Resolver func(name string) func(v any) any

// Compile resolves every name in e once and returns a closure that
// evaluates e over an edge value. It is Eval with field resolution moved
// to plan time: operators, coercions and nil handling are the kernels
// Eval itself runs, so for a resolver that reads a Tuple with Get the two
// agree on every input (FuzzCompileMatchesEval).
func Compile(e Expr, resolve Resolver) func(v any) any {
	switch x := e.(type) {
	case Literal:
		val := x.V
		return func(any) any { return val }
	case Field:
		return resolve(x.Name)
	case Call:
		return resolve(x.String())
	case Not:
		inner := Compile(x.E, resolve)
		return func(v any) any { return !truthy(inner(v)) }
	case Neg:
		return boxNum(compileNum(x, resolve))
	case Binary:
		switch op := parseOp(x.Op); {
		case op.computes():
			return boxNum(compileNum(x, resolve))
		case op.compares() && (numeric(x.L) || numeric(x.R)):
			l, r := compileOperand(x.L, resolve), compileOperand(x.R, resolve)
			return func(v any) any {
				lf, lnum, lv := l(v)
				rf, rnum, rv := r(v)
				if lnum && rnum {
					return compareFloats(op, lf, rf)
				}
				return compare(op, lv, rv)
			}
		default:
			l, r := Compile(x.L, resolve), Compile(x.R, resolve)
			switch {
			case op == opAnd:
				return func(v any) any { return truthy(l(v)) && truthy(r(v)) }
			case op == opOr:
				return func(v any) any { return truthy(l(v)) || truthy(r(v)) }
			case op.compares():
				return func(v any) any { return compare(op, l(v), r(v)) }
			}
		}
		return func(any) any { return nil }
	}
	// The parser builds no other node; a new Expr type has to be taught
	// here before a plan can carry it.
	panic(fmt.Sprintf("cql: cannot compile expression node %T", e))
}

// numeric reports whether e is arithmetic or a negation, whose value is
// a float64 or nil.
func numeric(e Expr) bool {
	switch x := e.(type) {
	case Neg:
		return true
	case Binary:
		return parseOp(x.Op).computes()
	}
	return false
}

// compileNum compiles e to its value as a float64, ok false where Eval
// yields a non-numeric value. Arithmetic and negation run on the float64s
// of their operands, so nothing between the leaves and the root is boxed.
func compileNum(e Expr, resolve Resolver) func(v any) (float64, bool) {
	switch x := e.(type) {
	case Literal:
		f, ok := aggregate.ToFloat(x.V)
		return func(any) (float64, bool) { return f, ok }
	case Neg:
		inner := compileNum(x.E, resolve)
		return func(v any) (float64, bool) {
			f, ok := inner(v)
			return -f, ok
		}
	case Binary:
		if op := parseOp(x.Op); op.computes() {
			l, r := compileNum(x.L, resolve), compileNum(x.R, resolve)
			return func(v any) (float64, bool) {
				lf, lok := l(v)
				rf, rok := r(v)
				if !lok || !rok {
					return 0, false
				}
				return arithFloat(op, lf, rf)
			}
		}
	}
	g := Compile(e, resolve)
	return func(v any) (float64, bool) { return aggregate.ToFloat(g(v)) }
}

// boxNum is a compiled numeric expression as Compile returns it: the
// float64, or nil.
func boxNum(n func(v any) (float64, bool)) func(v any) any {
	return func(v any) any {
		if f, ok := n(v); ok {
			return f
		}
		return nil
	}
}

// compileOperand compiles one side of a comparison to its float64 when
// it is a number, and to a value compare reads as Eval's. A numeric side
// yields its float64 unboxed; when the other side is not a number,
// compare reads of it only that it is one, so it yields a number boxed
// once for all, or nil.
func compileOperand(e Expr, resolve Resolver) func(v any) (float64, bool, any) {
	if numeric(e) {
		n := compileNum(e, resolve)
		return func(v any) (float64, bool, any) {
			if f, ok := n(v); ok {
				return f, true, aNumber
			}
			return 0, false, nil
		}
	}
	g := Compile(e, resolve)
	return func(v any) (float64, bool, any) {
		val := g(v)
		f, ok := aggregate.ToFloat(val)
		return f, ok, val
	}
}

// aNumber stands for a number of any value.
var aNumber any = 0.0
