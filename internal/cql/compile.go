package cql

import "fmt"

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
		inner := Compile(x.E, resolve)
		return func(v any) any { return negate(inner(v)) }
	case Binary:
		l, r := Compile(x.L, resolve), Compile(x.R, resolve)
		switch op := parseOp(x.Op); {
		case op == opAnd:
			return func(v any) any { return truthy(l(v)) && truthy(r(v)) }
		case op == opOr:
			return func(v any) any { return truthy(l(v)) || truthy(r(v)) }
		case op.compares():
			return func(v any) any { return compare(op, l(v), r(v)) }
		case op.computes():
			return func(v any) any { return arith(op, l(v), r(v)) }
		}
		return func(any) any { return nil }
	}
	// The parser builds no other node; a new Expr type has to be taught
	// here before a plan can carry it.
	panic(fmt.Sprintf("cql: cannot compile expression node %T", e))
}
