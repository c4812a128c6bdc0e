package ops

import (
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// Coalesce merges consecutive elements with the same key whose validity
// intervals overlap or are adjacent into a single element spanning their
// union. It is the paper's "special mechanism that substantially reduces
// stream rates": a downstream of an aggregation whose value rarely changes
// collapses runs of equal results into one element (experiment E9).
//
// With the identity key, Coalesce is the temporal duplicate elimination δ:
// at every snapshot each key appears at most once — see NewDistinct.
//
// A key's pending span is the record of its list in the keyed table; the
// end heap holds one entry per pending span, by span id, moved when the
// span is extended and removed when it is emitted.
type Coalesce struct {
	ordered
	key   KeyFunc
	spans keyed[span]
	ends  xds.IndexedHeap[temporal.Time] // each pending span's End, by span id
}

// span is one key's pending span.
type span struct {
	key   any
	value temporal.Element
}

// NewCoalesce returns a coalescing operator; a nil key coalesces elements
// with equal values (the values must then be comparable).
func NewCoalesce(name string, key KeyFunc) *Coalesce {
	if key == nil {
		key = func(v any) any { return v }
	}
	c := &Coalesce{key: key}
	c.spans = keyed[span]{ids: map[any]int32{}, holds: &c.holds, heap: &c.ends,
		copy: captureSpan, entry: appendSpan, read: c.readSpans}
	c.init(name, 1, c.processOne, func() { c.spans.inKeyOrder(c.emit) }, &c.spans)
	return c
}

// NewDistinct returns temporal duplicate elimination over comparable
// values: the snapshot at any instant contains each value at most once.
func NewDistinct(name string) *Coalesce { return NewCoalesce(name, nil) }

// processOne is the per-element body, under ProcMu.
func (c *Coalesce) processOne(_ int, e temporal.Element) {
	// Finalise pending spans no future element can extend: their End lies
	// strictly before the new watermark.
	for {
		end, id, ok := c.ends.Peek()
		if !ok || end >= e.Start {
			break
		}
		c.emit(id)
	}

	k := c.key(e.Value)
	id, ok := c.spans.ids[k]
	if !ok {
		c.open(k, e)
		return
	}
	p := c.spans.Rec(id)
	if e.Start <= p.value.End { // overlap or adjacency: extend
		if e.End > p.value.End {
			p.value.End = e.End
			c.ends.Set(id, e.End)
		}
		return
	}
	// A gap: the old span is final, and e opens the key's next.
	c.add(p.value)
	p.value = e
	c.holds.Set(id, e.Start)
	c.ends.Set(id, e.End)
}

// open makes e the pending span of key k, which has none.
func (c *Coalesce) open(k any, e temporal.Element) {
	c.ends.Push(c.spans.add(k, span{key: k, value: e}, e.Start), e.End)
}

// emit buffers the pending span id, which is final, and drops it.
func (c *Coalesce) emit(id int32) {
	p := c.spans.Rec(id)
	c.add(p.value)
	c.ends.Remove(id)
	c.spans.drop(p.key, id)
}
