package ops

import (
	"pipes/internal/aggregate"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// GroupResult is the default output value of a grouped aggregation.
type GroupResult struct {
	Key any
	Agg any
}

// globalGroup is the sentinel key of an ungrouped aggregation.
type globalGroup struct{}

// GroupBy is the temporal aggregation operator γ: for every group it emits
// one element per maximal time span over which the group's snapshot
// multiset — and hence its aggregate — is constant. Boundaries are exactly
// the starts and ends of input validity intervals, so the operator is
// non-blocking: a span is emitted as soon as its right boundary has
// certainly passed. Invertible aggregates (count/sum/avg/variance) are
// maintained incrementally; others (min/max/quantiles) are recomputed from
// the group's live elements, in arrival order, before a span reads them.
//
// A group is a list of the keyed table (keyed, over xds.Lists): its
// record is the list's, its live elements the list's nodes. One expiry heap orders
// every live element's node by End, so a boundary pops exactly the
// elements it expires. A group whose last element expires gives its id
// back, and the next new key takes it; its aggregate is reset and kept
// for a new key while such spares are fewer than the live groups.
//
// Each span's output value is outFn(key, agg), read off the group's
// aggregate when the span closes; a span outFn declines emits nothing
// (a HAVING clause compiled into the node). The default outFn yields
// GroupResult{key, agg.Value()} (or the bare aggregate value for
// ungrouped use) for every span, its numeric result boxed into the
// node's chunks (aggregate.Boxes).
type GroupBy struct {
	ordered
	key     KeyFunc
	factory aggregate.Factory
	outFn   func(key any, agg aggregate.Aggregate) (any, bool)
	groups  keyed[group]                   // each group's record and live elements, by group id
	expiry  xds.Heap[temporal.Time, int32] // every live element's node, by End
	spare   []aggregate.Aggregate          // emptied groups' aggregates, reset
	boxes   aggregate.Boxes                // the default outFn's results
}

// group is one group's record.
type group struct {
	key   any
	agg   aggregate.Aggregate
	lb    temporal.Time // left boundary of the open span
	trace any           // trace slot of the latest traced contributor
	stale bool          // agg still counts expired elements
}

// NewGroupBy returns a grouped aggregation. key may be nil for a single
// global group; outFn may be nil for the default output shape. outFn runs
// under the node's processing lock and must not keep agg.
func NewGroupBy(name string, key KeyFunc, factory aggregate.Factory, outFn func(key any, agg aggregate.Aggregate) (any, bool)) *GroupBy {
	if factory == nil {
		panic("ops: group-by requires an aggregate factory")
	}
	grouped := key != nil
	if key == nil {
		key = func(any) any { return globalGroup{} }
	}
	g := &GroupBy{key: key, factory: factory, outFn: outFn}
	if outFn == nil {
		if grouped {
			g.outFn = func(k any, a aggregate.Aggregate) (any, bool) {
				return GroupResult{Key: k, Agg: g.boxes.Value(a)}, true
			}
		} else {
			g.outFn = func(_ any, a aggregate.Aggregate) (any, bool) { return g.boxes.Value(a), true }
		}
	}
	g.groups = keyed[group]{ids: map[any]int32{}, holds: &g.holds, heap: &g.expiry,
		copy: captureGroup, entry: appendGroup, read: g.readGroups}
	// Every live group, one holding elements valid forever included, has
	// a span left to close at the end of the stream.
	g.init(name, 1, g.processOne, func() { drain(&g.ordered, &g.expiry, g.advance) }, &g.groups)
	return g
}

// NewGroupInto returns a grouped aggregation whose spans deliver rows
// of the columns cols, which it lends (rows, SEMANTICS.md §3.7): the
// planner's γ. cols are the rows' field names in byte order, each once.
// fill writes the result for the group of key into one cell a column,
// vals[i] the value of cols[i], when its span closes, and reports
// whether the span emits at all (a HAVING clause compiled into the
// node); it runs under the node's processing lock and must not keep agg
// or vals. A pending result is its cells (cells): the row it leaves in is
// taken from the free list only when the core releases it, and comes
// back after the frame, so the node never holds more than a frame of
// rows. A capture copies the cells, and writes each as the row it
// becomes.
func NewGroupInto[M ~map[string]any](name string, key KeyFunc, factory aggregate.Factory, cols []string, fill func(key any, agg aggregate.Aggregate, vals []any) bool) *GroupBy {
	if fill == nil {
		panic("ops: nil group projection")
	}
	r := new(rows[M])
	cs := newCells(cols, r)
	var g *GroupBy
	// The span's cells are the ones of the slot its result takes: emitSpan
	// adds the result right after this returns.
	g = NewGroupBy(name, key, factory, func(k any, agg aggregate.Aggregate) (any, bool) {
		vals := cs.at(g.results.Next())
		if !fill(k, agg, vals) {
			clear(vals)
			return nil, false
		}
		return nil, true
	})
	g.cells = cs
	r.lend(&g.SourceBase)
	g.free = r
	return g
}

// NewAggregate returns an ungrouped aggregation (a single global group).
func NewAggregate(name string, factory aggregate.Factory) *GroupBy {
	return NewGroupBy(name, nil, factory, nil)
}

// processOne is the per-element body, under ProcMu.
func (g *GroupBy) processOne(_ int, e temporal.Element) {
	g.advance(e.Start)

	k := g.key(e.Value)
	id, ok := g.groups.ids[k]
	if !ok {
		id = g.newGroup(k, e.Start)
	} else if g.groups.Rec(id).lb < e.Start {
		g.emitSpan(id, e.Start)
	}
	grp := g.groups.Rec(id)
	g.expiry.Push(e.End, g.groups.Append(id, e))
	grp.agg.Insert(e.Value)
	if grp.lb != e.Start {
		grp.lb = e.Start
		g.holds.Set(id, e.Start)
	}
	if e.Trace != nil {
		grp.trace = e.Trace
	}
}

// advance processes every interval end up to and including t, emitting the
// spans those boundaries close: a group's first element to expire at a
// boundary closes its span, before any of them leaves the group.
func (g *GroupBy) advance(t temporal.Time) {
	for {
		end, slot, ok := g.expiry.Peek()
		if !ok || end > t {
			return
		}
		g.expiry.Pop()
		id := g.groups.ListOf(slot)
		grp := g.groups.Rec(id)
		if grp.lb < end {
			g.emitSpan(id, end)
			grp.lb = end
			g.holds.Set(id, end)
		}
		expired := g.groups.Remove(slot)
		if g.groups.Count(id) == 0 {
			g.retire(id)
		} else if inv, ok := grp.agg.(aggregate.Invertible); ok {
			inv.Remove(expired.Value)
		} else {
			grp.stale = true
		}
	}
}

// newGroup adds a group of key k whose open span starts at lb, with a
// spare aggregate if there is one, and returns its id.
func (g *GroupBy) newGroup(k any, lb temporal.Time) int32 {
	var agg aggregate.Aggregate
	if n := len(g.spare); n > 0 {
		agg = g.spare[n-1]
		g.spare[n-1] = nil
		g.spare = g.spare[:n-1]
	} else {
		agg = g.factory()
	}
	return g.groups.add(k, group{key: k, agg: agg, lb: lb}, lb)
}

// retire drops the emptied group id and keeps its aggregate, reset to a
// fresh one's state (aggregate.Aggregate.Reset), while spares are fewer
// than live groups.
func (g *GroupBy) retire(id int32) {
	grp := g.groups.Rec(id)
	if len(g.spare) < len(g.groups.ids) {
		grp.agg.Reset()
		g.spare = append(g.spare, grp.agg)
	}
	g.groups.drop(grp.key, id)
}

// emitSpan buffers one output element of group id for [lb, to), unless
// outFn declines the span. A stale aggregate is recomputed first.
func (g *GroupBy) emitSpan(id int32, to temporal.Time) {
	grp := g.groups.Rec(id)
	if grp.stale {
		grp.agg.Reset()
		for s := g.groups.Head(id); s >= 0; s = g.groups.Next(s) {
			grp.agg.Insert(g.groups.At(s).Value)
		}
		grp.stale = false
	}
	v, ok := g.outFn(grp.key, grp.agg)
	if !ok {
		return
	}
	g.add(temporal.Element{
		Value:    v,
		Interval: temporal.NewInterval(grp.lb, to),
		Trace:    grp.trace,
	})
}

// GroupCount returns the number of live groups — exposed for memory
// accounting and tests.
func (g *GroupBy) GroupCount() int {
	g.ProcMu.Lock()
	defer g.ProcMu.Unlock()
	return len(g.groups.ids)
}
