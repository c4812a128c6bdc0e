package optimizer

import (
	"pipes/internal/aggregate"
	"pipes/internal/cql"
)

// rowAgg folds the values of one group: one sub-aggregate per CQL call,
// fed by the call's argument compiled against the group's input edge.
// Value materialises the group's output row — key columns (read off any
// member: all share them), then call results — in the slot order
// rowShape names at plan time.
type rowAgg struct {
	keys []func(v any) any
	args []func(v any) any // nil for COUNT(*)
	subs []aggregate.Aggregate
	rep  any // representative member carrying the key values
	n    int64
}

// newRowAggFactory compiles keys and call arguments against the input
// shape and returns the group-by's aggregate factory. When every
// sub-aggregate is invertible the factory produces Invertible composites
// and the group-by takes its incremental fast path.
func newRowAggFactory(keys []cql.Expr, calls []cql.Call, in Shape) (aggregate.Factory, error) {
	keyFns := compileAll(keys, in)
	argFns := make([]func(any) any, len(calls))
	subFactories := make([]aggregate.Factory, len(calls))
	invertible := true
	for i, c := range calls {
		f, err := aggregate.ByName(c.Fn)
		if err != nil {
			return nil, err
		}
		subFactories[i] = f
		if _, ok := f().(aggregate.Invertible); !ok {
			invertible = false
		}
		if !c.Star {
			argFns[i] = cql.Compile(c.Arg, in.Resolve)
		}
	}
	mk := func() rowAgg {
		subs := make([]aggregate.Aggregate, len(subFactories))
		for i, f := range subFactories {
			subs[i] = f()
		}
		return rowAgg{keys: keyFns, args: argFns, subs: subs}
	}
	if invertible {
		return func() aggregate.Aggregate { return &invertibleRowAgg{rowAgg: mk()} }, nil
	}
	return func() aggregate.Aggregate { a := mk(); return &a }, nil
}

// Insert implements aggregate.Aggregate.
func (a *rowAgg) Insert(v any) {
	if a.n == 0 {
		a.rep = v
	}
	a.n++
	for i, arg := range a.args {
		if arg == nil {
			a.subs[i].Insert(int64(1))
		} else if val := arg(v); val != nil {
			a.subs[i].Insert(val)
		}
	}
}

// Value implements aggregate.Aggregate: the group's output row.
func (a *rowAgg) Value() any {
	row := make([]any, 0, len(a.keys)+len(a.subs))
	for _, k := range a.keys {
		row = append(row, k(a.rep))
	}
	for _, s := range a.subs {
		row = append(row, s.Value())
	}
	return row
}

// Reset implements aggregate.Aggregate.
func (a *rowAgg) Reset() {
	a.rep = nil
	a.n = 0
	for _, s := range a.subs {
		s.Reset()
	}
}

// invertibleRowAgg adds removal when every sub-aggregate supports it.
type invertibleRowAgg struct {
	rowAgg
}

// Remove implements aggregate.Invertible.
func (a *invertibleRowAgg) Remove(v any) {
	a.n--
	if a.n == 0 {
		a.rep = nil
	}
	for i, arg := range a.args {
		inv := a.subs[i].(aggregate.Invertible)
		if arg == nil {
			inv.Remove(int64(1))
		} else if val := arg(v); val != nil {
			inv.Remove(val)
		}
	}
}
