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
// the group's live multiset at each boundary. A group whose last element
// expires is reset and kept on a spare list (at most as many as there are
// live groups), and the next new key takes it, heap capacity and all.
//
// Each span's output value is outFn(key, agg), read off the group's
// aggregate when the span closes; a span outFn declines emits nothing
// (a HAVING clause compiled into the node). The default outFn yields
// GroupResult{key, agg.Value()} (or the bare aggregate value for
// ungrouped use) for every span.
type GroupBy struct {
	ordered
	key     KeyFunc
	factory aggregate.Factory
	outFn   func(key any, agg aggregate.Aggregate) (any, bool)
	groups  map[any]*group
	spare   []*group                     // emptied groups, reset; ProcMu
	expiry  xds.Heap[temporal.Time, any] // group keys by the End of a live element
}

type group struct {
	active xds.Heap[temporal.Time, temporal.Element] // live elements by End
	agg    aggregate.Aggregate
	inv    aggregate.Invertible // non-nil fast path
	lb     temporal.Time        // left boundary of the open span
	trace  any                  // trace slot of the latest traced contributor
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
	if outFn == nil {
		if grouped {
			outFn = func(k any, a aggregate.Aggregate) (any, bool) { return GroupResult{Key: k, Agg: a.Value()}, true }
		} else {
			outFn = func(_ any, a aggregate.Aggregate) (any, bool) { return a.Value(), true }
		}
	}
	g := &GroupBy{
		key:     key,
		factory: factory,
		outFn:   outFn,
		groups:  map[any]*group{},
	}
	// Groups holding elements valid forever never see a closing boundary
	// before the end; advance(MaxTime) pops their expiry events and emits
	// their final spans.
	g.init(name, 1, g.processOne, g.liveLow, func() { g.advance(temporal.MaxTime) }, groupTable{g})
	return g
}

// NewGroupInto returns a grouped aggregation whose spans deliver rows
// it lends (rows, SEMANTICS.md §3.7): the planner's γ. fill writes the
// result for the group of key into an empty row when its span closes and
// reports whether the span emits at all (a HAVING clause compiled into
// the node); it runs under the node's processing lock and must not keep
// agg. A row a borrower returns is reused only once no checkpoint
// capture of the node is out: its pending rows are state, and the
// capture's encode reads them after the barrier.
func NewGroupInto[M ~map[string]any](name string, key KeyFunc, factory aggregate.Factory, fill func(key any, agg aggregate.Aggregate, row M) bool) *GroupBy {
	if fill == nil {
		panic("ops: nil group projection")
	}
	r := new(rows[M])
	g := NewGroupBy(name, key, factory, func(k any, agg aggregate.Aggregate) (any, bool) {
		row := r.get()
		if !fill(k, agg, row) {
			r.keep(row)
			return nil, false
		}
		return row, true
	})
	r.core = &g.ordered
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
	grp := g.groups[k]
	if grp == nil {
		grp = g.newGroup(e.Start)
		g.groups[k] = grp
	} else if grp.active.Len() > 0 && grp.lb < e.Start {
		g.emitSpan(k, grp, e.Start)
	}
	grp.active.Push(e.End, e)
	grp.agg.Insert(e.Value)
	grp.lb = e.Start
	if e.Trace != nil {
		grp.trace = e.Trace
	}
	g.expiry.Push(e.End, k)
	g.holdBack(grp.lb, k)
}

// advance processes every interval end up to and including t, emitting the
// spans those boundaries close.
func (g *GroupBy) advance(t temporal.Time) {
	for {
		end, key, ok := g.expiry.Peek()
		if !ok || end > t {
			return
		}
		g.expiry.Pop()
		grp := g.groups[key]
		if grp == nil {
			continue // group fully expired by an earlier event at this end
		}
		if first, _, ok := grp.active.Peek(); !ok || first > end {
			continue // stale duplicate event
		}
		if grp.lb < end {
			g.emitSpan(key, grp, end)
		}
		for {
			first, _, ok := grp.active.Peek()
			if !ok || first > end {
				break
			}
			_, expired, _ := grp.active.Pop()
			if grp.inv != nil {
				grp.inv.Remove(expired.Value)
			}
		}
		if grp.active.Len() == 0 {
			g.retire(key, grp)
			continue
		}
		if grp.inv == nil {
			g.recompute(grp)
		}
		grp.lb = end
		g.holdBack(grp.lb, key)
	}
}

// newGroup returns an empty group whose open span starts at lb: a spare
// one if there is one, else a new one.
func (g *GroupBy) newGroup(lb temporal.Time) *group {
	if n := len(g.spare); n > 0 {
		grp := g.spare[n-1]
		g.spare[n-1] = nil
		g.spare = g.spare[:n-1]
		grp.lb = lb
		return grp
	}
	agg := g.factory()
	inv, _ := agg.(aggregate.Invertible)
	return &group{agg: agg, inv: inv, lb: lb}
}

// retire drops the emptied group of key k and keeps it as a spare while
// spares are fewer than live groups. Its aggregate is reset to a fresh
// one's state (aggregate.Aggregate.Reset) and its trace dropped; its
// empty heap keeps its backing array.
func (g *GroupBy) retire(k any, grp *group) {
	if len(g.spare) < len(g.groups) {
		grp.agg.Reset()
		grp.trace = nil
		g.spare = append(g.spare, grp)
	}
	delete(g.groups, k)
}

func (g *GroupBy) recompute(grp *group) {
	grp.agg.Reset()
	for _, e := range grp.active.All() {
		grp.agg.Insert(e.Value)
	}
}

// emitSpan buffers one output element for [grp.lb, to), unless outFn
// declines the span.
func (g *GroupBy) emitSpan(key any, grp *group, to temporal.Time) {
	v, ok := g.outFn(key, grp.agg)
	if !ok {
		return
	}
	g.add(temporal.Element{
		Value:    v,
		Interval: temporal.NewInterval(grp.lb, to),
		Trace:    grp.trace,
	})
}

// liveLow reports whether a holdback entry is still its group's open
// span start: no future output can start before the earliest one.
func (g *GroupBy) liveLow(lb temporal.Time, key any) bool {
	grp := g.groups[key]
	return grp != nil && grp.lb == lb
}

// GroupCount returns the number of live groups — exposed for memory
// accounting and tests.
func (g *GroupBy) GroupCount() int {
	g.ProcMu.Lock()
	defer g.ProcMu.Unlock()
	return len(g.groups)
}
