package cql

import (
	"fmt"
	"strings"

	"pipes/internal/aggregate"
)

// Tuple is the record type flowing through CQL queries: field name →
// value. Joined tuples carry qualified names ("stream.field").
type Tuple map[string]any

// Get resolves a field: exact match first, then unique unqualified suffix
// match ("price" resolves "bids.price" if unambiguous).
func (t Tuple) Get(name string) (any, bool) {
	if v, ok := t[name]; ok {
		return v, true
	}
	var found any
	hits := 0
	suffix := "." + name
	for k, v := range t {
		if strings.HasSuffix(k, suffix) {
			found = v
			hits++
		}
	}
	if hits == 1 {
		return found, true
	}
	return nil, false
}

// Clone returns a shallow copy.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// Expr is an evaluable scalar expression over tuples. String returns a
// canonical form used for plan signatures and sharing.
type Expr interface {
	Eval(t Tuple) any
	String() string
}

// Literal is a constant.
type Literal struct{ V any }

// Eval implements Expr.
func (l Literal) Eval(Tuple) any { return l.V }

func (l Literal) String() string {
	if s, ok := l.V.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprintf("%v", l.V)
}

// Field references a (possibly qualified) tuple field; missing fields
// evaluate to nil.
type Field struct{ Name string }

// Eval implements Expr.
func (f Field) Eval(t Tuple) any {
	v, _ := t.Get(f.Name)
	return v
}

func (f Field) String() string { return f.Name }

// Binary applies an infix operator. Comparison yields bool; arithmetic
// yields float64; AND/OR expect bools (nil counts as false).
type Binary struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (b Binary) Eval(t Tuple) any {
	switch b.Op {
	case "AND":
		return truthy(b.L.Eval(t)) && truthy(b.R.Eval(t))
	case "OR":
		return truthy(b.L.Eval(t)) || truthy(b.R.Eval(t))
	}
	switch op := parseOp(b.Op); {
	case op.compares():
		return compare(op, b.L.Eval(t), b.R.Eval(t))
	case op.computes():
		return arith(op, b.L.Eval(t), b.R.Eval(t))
	}
	return nil
}

func (b Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(t Tuple) any { return !truthy(n.E.Eval(t)) }

func (n Not) String() string { return "(NOT " + n.E.String() + ")" }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Eval implements Expr.
func (n Neg) Eval(t Tuple) any { return negate(n.E.Eval(t)) }

func (n Neg) String() string { return "(-" + n.E.String() + ")" }

// Call is an aggregate-function application (COUNT(*), AVG(expr), …).
// Calls never evaluate directly — the planner rewrites them into group-by
// state and replaces them with field references; Eval reads the
// already-computed result field.
type Call struct {
	Fn   string // upper-case function name
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

// Eval implements Expr: reads the precomputed aggregate result.
func (c Call) Eval(t Tuple) any {
	v, _ := t.Get(c.String())
	return v
}

func (c Call) String() string {
	if c.Star {
		return c.Fn + "(*)"
	}
	return c.Fn + "(" + c.Arg.String() + ")"
}

// binOp is a parsed infix operator. Binary.Eval parses its Op on every
// call, Compile once; both then meet in the kernels below, so the
// interpreter and the compiled closures cannot drift apart.
type binOp uint8

const (
	opUnknown binOp = iota
	opAnd
	opOr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
	opMod
)

func parseOp(s string) binOp {
	switch s {
	case "AND":
		return opAnd
	case "OR":
		return opOr
	case "=":
		return opEq
	case "!=", "<>":
		return opNe
	case "<":
		return opLt
	case "<=":
		return opLe
	case ">":
		return opGt
	case ">=":
		return opGe
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return opDiv
	case "%":
		return opMod
	}
	return opUnknown
}

func (op binOp) compares() bool { return op >= opEq && op <= opGe }
func (op binOp) computes() bool { return op >= opAdd && op <= opMod }

func truthy(v any) bool {
	b, ok := v.(bool)
	return ok && b
}

// compare is the comparison kernel: numbers compare as float64 whatever
// their Go type, strings order against strings, anything else is equal
// only to itself and ordered against nothing.
func compare(op binOp, l, r any) bool {
	lf, lnum := aggregate.ToFloat(l)
	rf, rnum := aggregate.ToFloat(r)
	if lnum && rnum {
		switch op {
		case opEq:
			return lf == rf
		case opNe:
			return lf != rf
		case opLt:
			return lf < rf
		case opLe:
			return lf <= rf
		case opGt:
			return lf > rf
		default:
			return lf >= rf
		}
	}
	switch op {
	case opEq:
		return !lnum && !rnum && l == r
	case opNe:
		return lnum || rnum || l != r
	}
	ls, lstr := l.(string)
	rs, rstr := r.(string)
	if !lstr || !rstr {
		return false
	}
	switch op {
	case opLt:
		return ls < rs
	case opLe:
		return ls <= rs
	case opGt:
		return ls > rs
	default:
		return ls >= rs
	}
}

// arith is the arithmetic kernel: float64 results, nil for a non-numeric
// operand or a zero divisor.
func arith(op binOp, l, r any) any {
	lf, lok := aggregate.ToFloat(l)
	rf, rok := aggregate.ToFloat(r)
	if !lok || !rok {
		return nil
	}
	switch op {
	case opAdd:
		return lf + rf
	case opSub:
		return lf - rf
	case opMul:
		return lf * rf
	}
	if op == opDiv {
		if rf == 0 {
			return nil
		}
		return lf / rf
	}
	// Modulo is over the integer parts, so a divisor in (-1, 1) is zero too.
	d := int64(rf)
	if d == 0 {
		return nil
	}
	return float64(int64(lf) % d)
}

func negate(v any) any {
	f, ok := aggregate.ToFloat(v)
	if !ok {
		return nil
	}
	return -f
}

// CollectCalls returns every aggregate Call inside e, left to right.
func CollectCalls(e Expr) []Call {
	var out []Call
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case Call:
			out = append(out, v)
		case Binary:
			walk(v.L)
			walk(v.R)
		case Not:
			walk(v.E)
		case Neg:
			walk(v.E)
		}
	}
	walk(e)
	return out
}

// CollectFields returns every field name referenced in e.
func CollectFields(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case Field:
			out = append(out, v.Name)
		case Call:
			if v.Arg != nil {
				walk(v.Arg)
			}
		case Binary:
			walk(v.L)
			walk(v.R)
		case Not:
			walk(v.E)
		case Neg:
			walk(v.E)
		}
	}
	walk(e)
	return out
}
