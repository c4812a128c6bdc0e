package ops

import (
	"pipes/internal/aggregate"
	"pipes/internal/pubsub"
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
// the group's live multiset at each boundary.
//
// Each span's output value is outFn(key, agg), read off the group's
// aggregate when the span closes; a span outFn declines emits nothing
// (a HAVING clause compiled into the node). The default outFn yields
// GroupResult{key, agg.Value()} (or the bare aggregate value for
// ungrouped use) for every span.
type GroupBy struct {
	pubsub.PipeBase
	key     KeyFunc
	factory aggregate.Factory
	outFn   func(key any, agg aggregate.Aggregate) (any, bool)
	groups  map[any]*group
	expiry  *xds.Heap[expiryEvent]
	lows    *xds.Heap[lowEntry]
	out     *orderBuffer
}

type group struct {
	active *xds.Heap[temporal.Element] // live elements ordered by End
	agg    aggregate.Aggregate
	inv    aggregate.Invertible // non-nil fast path
	lb     temporal.Time        // left boundary of the open span
	trace  any                  // trace slot of the latest traced contributor
}

type expiryEvent struct {
	end temporal.Time
	key any
}

type lowEntry struct {
	lb  temporal.Time
	key any
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
		PipeBase: pubsub.NewPipeBase(name, 1),
		key:      key,
		factory:  factory,
		outFn:    outFn,
		groups:   map[any]*group{},
		expiry:   xds.NewHeap[expiryEvent](func(a, b expiryEvent) bool { return a.end < b.end }),
		lows:     xds.NewHeap[lowEntry](func(a, b lowEntry) bool { return a.lb < b.lb }),
		out:      newOrderBuffer(1),
	}
	g.OnAllDone = g.finish
	return g
}

// NewAggregate returns an ungrouped aggregation (a single global group).
func NewAggregate(name string, factory aggregate.Factory) *GroupBy {
	return NewGroupBy(name, nil, factory, nil)
}

// ProcessBatch implements pubsub.BatchSink.
func (g *GroupBy) ProcessBatch(b temporal.Batch, _ int) {
	g.ProcMu.Lock()
	defer g.ProcMu.Unlock()
	for _, e := range b {
		g.processOne(e)
	}
	g.Flush()
}

// processOne is the per-element body, under ProcMu.
func (g *GroupBy) processOne(e temporal.Element) {
	g.advance(e.Start)

	k := g.key(e.Value)
	grp := g.groups[k]
	if grp == nil {
		agg := g.factory()
		inv, _ := agg.(aggregate.Invertible)
		grp = &group{
			active: xds.NewHeap[temporal.Element](func(a, b temporal.Element) bool { return a.End < b.End }),
			agg:    agg,
			inv:    inv,
			lb:     e.Start,
		}
		g.groups[k] = grp
	} else if grp.active.Len() > 0 && grp.lb < e.Start {
		g.emitSpan(k, grp, e.Start)
	}
	grp.active.Push(e)
	grp.agg.Insert(e.Value)
	grp.lb = e.Start
	if e.Trace != nil {
		grp.trace = e.Trace
	}
	g.expiry.Push(expiryEvent{end: e.End, key: k})
	g.lows.Push(lowEntry{lb: grp.lb, key: k})

	g.out.observe(0, e.Start)
	g.out.release(g.bound(), g.Emit)
}

// advance processes every interval end up to and including t, emitting the
// spans those boundaries close.
func (g *GroupBy) advance(t temporal.Time) {
	for {
		ev, ok := g.expiry.Peek()
		if !ok || ev.end > t {
			return
		}
		g.expiry.Pop()
		grp := g.groups[ev.key]
		if grp == nil {
			continue // group fully expired by an earlier event at this end
		}
		top, ok := grp.active.Peek()
		if !ok || top.End > ev.end {
			continue // stale duplicate event
		}
		if grp.lb < ev.end {
			g.emitSpan(ev.key, grp, ev.end)
		}
		for {
			top, ok := grp.active.Peek()
			if !ok || top.End > ev.end {
				break
			}
			expired, _ := grp.active.Pop()
			if grp.inv != nil {
				grp.inv.Remove(expired.Value)
			}
		}
		if grp.active.Len() == 0 {
			delete(g.groups, ev.key)
			continue
		}
		if grp.inv == nil {
			g.recompute(grp)
		}
		grp.lb = ev.end
		g.lows.Push(lowEntry{lb: grp.lb, key: ev.key})
	}
}

func (g *GroupBy) recompute(grp *group) {
	grp.agg.Reset()
	for _, e := range grp.active.Items() {
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
	g.out.add(temporal.Element{
		Value:    v,
		Interval: temporal.NewInterval(grp.lb, to),
		Trace:    grp.trace,
	})
}

// bound returns the release bound: no future output can start before
// min(input watermark, earliest open span start).
func (g *GroupBy) bound() temporal.Time {
	wm := g.out.watermark()
	for {
		low, ok := g.lows.Peek()
		if !ok {
			return wm
		}
		grp := g.groups[low.key]
		if grp == nil || grp.lb != low.lb {
			g.lows.Pop() // stale
			continue
		}
		if low.lb < wm {
			return low.lb
		}
		return wm
	}
}

// finish drains all remaining boundaries and flushes pending output.
func (g *GroupBy) finish() {
	g.advance(temporal.MaxTime)
	// Groups containing elements valid forever never see a closing
	// boundary; advance(MaxTime) pops their expiry events (end==MaxTime)
	// and emits their final spans, so nothing remains here.
	g.out.flush(g.Emit)
}

// GroupCount returns the number of live groups — exposed for memory
// accounting and tests.
func (g *GroupBy) GroupCount() int {
	g.ProcMu.Lock()
	defer g.ProcMu.Unlock()
	return len(g.groups)
}

// MemoryUsage implements the metadata/memory reporter.
func (g *GroupBy) MemoryUsage() int {
	g.ProcMu.Lock()
	defer g.ProcMu.Unlock()
	n := 0
	for _, grp := range g.groups {
		n += grp.active.Len()
	}
	return n*64 + len(g.groups)*48 + g.out.len()*64
}
