package optimizer

import (
	"pipes/internal/aggregate"
	"pipes/internal/cql"
)

// rowAgg folds the values of one group: one sub-aggregate per CQL call,
// fed by the call's argument compiled against the group's input edge.
// Nothing is materialised per span: the γ node's HAVING and select list
// read the group's columns off it through its groupView.
type rowAgg struct {
	node *rowNode // the node's, shared by all its groups
	subs []aggregate.Aggregate
	rep  any // representative member carrying the key values
	n    int64
}

// rowNode is what every group of one γ node shares: its keys and call
// arguments compiled against the input edge, and the Boxes its calls'
// results are boxed into.
type rowNode struct {
	keys  []func(v any) any
	args  []func(v any) any // nil for COUNT(*)
	boxes aggregate.Boxes
}

// newRowAggFactory compiles keys and call arguments against the input
// shape and returns the group-by's aggregate factory. When every
// sub-aggregate is invertible the factory produces Invertible composites
// and the group-by takes its incremental fast path.
//
// A new group costs a fraction of an allocation: the factory takes its
// record and its subs from chunks it owns (aggregate.Chunks), and each
// call's aggregate from the chunks of that call's own factory
// (aggregate.ByName). A group's memory comes back only with its whole
// chunk. Like those chunks and the node's Boxes, the factory is not safe
// for concurrent use: the γ node calls it where it adds a group, under
// its processing lock or while it loads its state.
func newRowAggFactory(keys []cql.Expr, calls []cql.Call, in Shape) (aggregate.Factory, error) {
	node := &rowNode{keys: compileAll(keys, in), args: make([]func(any) any, len(calls))}
	subFactories := make([]aggregate.Factory, len(calls))
	invertible := true
	for i, c := range calls {
		f, inv, err := aggregate.ByName(c.Fn)
		if err != nil {
			return nil, err
		}
		subFactories[i] = f
		invertible = invertible && inv
		if !c.Star {
			node.args[i] = cql.Compile(c.Arg, in.Resolve)
		}
	}
	var subs aggregate.Chunks[aggregate.Aggregate]
	// build sets a new group up in place.
	build := func(a *rowAgg) *rowAgg {
		a.node = node
		a.subs = subs.Take(len(subFactories))
		for i, f := range subFactories {
			a.subs[i] = f()
		}
		return a
	}
	if invertible {
		var recs aggregate.Chunks[invertibleRowAgg]
		return func() aggregate.Aggregate {
			a := recs.New()
			build(&a.rowAgg)
			return a
		}, nil
	}
	var recs aggregate.Chunks[rowAgg]
	return func() aggregate.Aggregate { return build(recs.New()) }, nil
}

// Insert implements aggregate.Aggregate.
func (a *rowAgg) Insert(v any) {
	if a.n == 0 {
		a.rep = v
	}
	a.n++
	for i, arg := range a.node.args {
		if arg == nil {
			a.subs[i].Insert(int64(1))
		} else if val := arg(v); val != nil {
			a.subs[i].Insert(val)
		}
	}
}

// Value implements aggregate.Aggregate: the group itself, the value a
// groupView reads.
func (a *rowAgg) Value() any { return a }

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
	for i, arg := range a.node.args {
		inv := a.subs[i].(aggregate.Invertible)
		if arg == nil {
			inv.Remove(int64(1))
		} else if val := arg(v); val != nil {
			inv.Remove(val)
		}
	}
}

// groupView is how a γ node's HAVING and select list read a group: by the
// canonical strings of the group's keys and calls (k.String(),
// c.String()), a key column off the group's representative member (all
// members share it), a call off its sub-aggregate through the node's
// Boxes — straight off the rowAgg when the span closes, with no row in
// between. A name resolves to
// a column by Tuple.Get's rule over those strings: exact, else the one
// column it is the unqualified suffix of.
type groupView struct {
	names []string // key columns, then calls
	keys  int
}

func newGroupView(g *Group) groupView {
	names := make([]string, 0, len(g.Keys)+len(g.Calls))
	for _, k := range g.Keys {
		names = append(names, k.String())
	}
	for _, c := range g.Calls {
		names = append(names, c.String())
	}
	return groupView{names: names, keys: len(g.Keys)}
}

func (g groupView) slot(name string) int {
	cols := make(cql.Tuple, len(g.names))
	for i := len(g.names) - 1; i >= 0; i-- {
		cols[g.names[i]] = i // of two columns named alike, the first
	}
	if i, ok := cols.Get(name); ok {
		return i.(int)
	}
	return -1
}

// column reads column i off a group (*rowAgg).
func (g groupView) column(i int) func(v any) any {
	if i < g.keys {
		return func(v any) any {
			a := v.(*rowAgg)
			return a.node.keys[i](a.rep)
		}
	}
	i -= g.keys
	return func(v any) any {
		a := v.(*rowAgg)
		return a.node.boxes.Value(a.subs[i])
	}
}

func (g groupView) Resolve(name string) func(v any) any {
	i := g.slot(name)
	if i < 0 {
		return func(any) any { return nil }
	}
	return g.column(i)
}
