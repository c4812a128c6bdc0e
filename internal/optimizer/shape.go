package optimizer

import (
	"fmt"
	"strings"

	"pipes/internal/cql"
	"pipes/internal/ops"
)

// Shape is the plan-time description of the values on one plan edge
// (SEMANTICS.md §5): it says what Go value an element carries there and
// binds every name an expression may mention to an accessor over that
// value, once, before the first element flows. There are three:
//
//   - a scan edge carries the source's own cql.Tuple, unqualified and
//     untouched; the qualifier is a fact about the edge, not a key prefix;
//   - a join edge carries ops.Pair{Left, Right} of its inputs' values;
//   - a projection edge carries the cql.Tuple the query delivers.
//
// A group-by has no edge of its own: the HAVING and select list above it
// are compiled into the γ node against the group's groupView (rowagg.go),
// and the node delivers the projected tuple — SELECT * under the columns'
// canonical names when no projection closes it, so its edge is a
// projection edge. Selection, DISTINCT and the relation-to-stream
// operators pass their input's shape through. A shape is a pure function
// of the plan subtree, so every query sharing a physical node by
// signature compiled against the same shape.
type Shape interface {
	// Resolve is the edge's cql.Resolver: nil for a name no field
	// answers to or, across a join, more than one does.
	Resolve(name string) func(v any) any
	// star returns the SELECT * materialiser: it writes every field of a
	// value into out under the name a query delivers it by.
	star() func(v any, out cql.Tuple)
	// lookup is Resolve with the match count kept, which is what the
	// enclosing pair needs to apply the ambiguity rule across its sides.
	lookup(name string) lookupFn
	// owns reports whether a scan with this qualifier feeds the edge.
	owns(qualifier string) bool
}

// lookupFn reads one name off an edge value and reports how many fields
// matched it.
type lookupFn func(v any) (val any, hits int)

// unique turns a lookup into a resolver: the value when exactly one field
// matched, nil otherwise.
func unique(lk lookupFn) func(v any) any {
	return func(v any) any {
		if x, hits := lk(v); hits == 1 {
			return x
		}
		return nil
	}
}

// ShapeOf derives the shape of p's output edge. It fails on a join whose
// two sides scan under the same qualifier, where a qualified name would
// not say which side it means, and on DISTINCT over anything but tuples.
func ShapeOf(p Plan) (Shape, error) {
	switch v := p.(type) {
	case *Scan:
		return scanShape{qual: v.Qualifier}, nil
	case *Select:
		return ShapeOf(v.Input)
	case *Distinct:
		in, err := ShapeOf(v.Input)
		if err != nil {
			return nil, err
		}
		if _, ok := in.(pairShape); ok {
			return nil, fmt.Errorf("optimizer: DISTINCT compares tuples; put a projection between it and the join below")
		}
		return in, nil
	case *Rel:
		return ShapeOf(v.Input)
	case *Join:
		l, err := ShapeOf(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := ShapeOf(v.Right)
		if err != nil {
			return nil, err
		}
		for q := range v.Right.Qualifiers() {
			if l.owns(q) && r.owns(q) {
				return nil, fmt.Errorf("optimizer: %q names both sides of a join; give each occurrence its own alias", q)
			}
		}
		return pairShape{l: l, r: r}, nil
	case *Group, *Project:
		if _, err := ShapeOf(p.Children()[0]); err != nil {
			return nil, err
		}
		return tupleShape{}, nil
	}
	return nil, fmt.Errorf("optimizer: unknown plan node %T", p)
}

// scanShape: the value is the source's tuple. Its own qualifier is
// stripped from a name at plan time; what is left is looked up verbatim,
// so a name under another qualifier finds nothing.
type scanShape struct{ qual string }

func (s scanShape) field(name string) string { return strings.TrimPrefix(name, s.qual+".") }

func (s scanShape) Resolve(name string) func(v any) any {
	field := s.field(name)
	return func(v any) any { return v.(cql.Tuple)[field] }
}

func (s scanShape) lookup(name string) lookupFn {
	field := s.field(name)
	return func(v any) (any, int) {
		if x, ok := v.(cql.Tuple)[field]; ok {
			return x, 1
		}
		return nil, 0
	}
}

func (s scanShape) owns(q string) bool { return q == s.qual }

func (s scanShape) star() func(v any, out cql.Tuple) {
	// A source declares no schema, so field names are met at run time;
	// each is qualified once and remembered. The projection that owns
	// this closure runs under its processing lock.
	qualified := map[string]string{}
	return func(v any, out cql.Tuple) {
		for k, x := range v.(cql.Tuple) {
			name, ok := qualified[k]
			if !ok {
				name = s.qual + "." + k
				qualified[k] = name
			}
			out[name] = x
		}
	}
}

// pairShape: the value is ops.Pair of the two inputs' values. A name
// under a qualifier one side owns is a path into that side, fixed at plan
// time. Any other name is tried on both sides per element and answers
// only when exactly one field in the whole pair matches — Tuple.Get's
// rule for the merged tuple, decided without a schema.
type pairShape struct{ l, r Shape }

func (p pairShape) side(name string) (Shape, bool, bool) {
	q, _, qualified := strings.Cut(name, ".")
	switch {
	case qualified && p.l.owns(q):
		return p.l, true, true
	case qualified && p.r.owns(q):
		return p.r, false, true
	}
	return nil, false, false
}

func (p pairShape) Resolve(name string) func(v any) any { return unique(p.lookup(name)) }

func (p pairShape) lookup(name string) lookupFn {
	if side, left, ok := p.side(name); ok {
		inner := side.lookup(name)
		if left {
			return func(v any) (any, int) { return inner(sides(v).Left) }
		}
		return func(v any) (any, int) { return inner(sides(v).Right) }
	}
	l, r := p.l.lookup(name), p.r.lookup(name)
	return func(v any) (any, int) {
		pr := sides(v)
		lv, ln := l(pr.Left)
		rv, rn := r(pr.Right)
		if ln == 0 {
			return rv, rn
		}
		return lv, ln + rn
	}
}

// sides returns the pair a join edge's value is: an ops.Pair the join
// emitted, or the *ops.Pair its residual predicate tests a candidate in
// (buildJoin).
func sides(v any) ops.Pair {
	if pr, ok := v.(*ops.Pair); ok {
		return *pr
	}
	return v.(ops.Pair)
}

func (p pairShape) owns(q string) bool { return p.l.owns(q) || p.r.owns(q) }

func (p pairShape) star() func(v any, out cql.Tuple) {
	l, r := p.l.star(), p.r.star()
	return func(v any, out cql.Tuple) {
		pr := v.(ops.Pair)
		l(pr.Left, out)
		r(pr.Right, out)
	}
}

// tupleShape: the value is a projected cql.Tuple. SELECT * can put names
// into it that no plan knows, so names are resolved per element with
// Tuple.Get; only operators above a projection (DISTINCT keys on the
// frame, the relation-to-stream operators look at nothing) pay for that.
type tupleShape struct{}

func (t tupleShape) Resolve(name string) func(v any) any { return unique(t.lookup(name)) }

func (tupleShape) lookup(name string) lookupFn {
	return func(v any) (any, int) {
		if x, ok := v.(cql.Tuple).Get(name); ok {
			return x, 1
		}
		return nil, 0
	}
}

func (tupleShape) owns(string) bool { return false }

func (tupleShape) star() func(v any, out cql.Tuple) {
	return func(v any, out cql.Tuple) {
		for k, x := range v.(cql.Tuple) {
			out[k] = x
		}
	}
}
