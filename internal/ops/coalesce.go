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
type Coalesce struct {
	ordered
	key     KeyFunc
	pending map[any]*span
	ends    xds.Heap[temporal.Time, any] // finalisation: pending span keys by End
}

// span is one key's pending span and its holdback entry at the span's
// Start.
type span struct {
	value temporal.Element
	hold  int32
}

// NewCoalesce returns a coalescing operator; a nil key coalesces elements
// with equal values (the values must then be comparable).
func NewCoalesce(name string, key KeyFunc) *Coalesce {
	if key == nil {
		key = func(v any) any { return v }
	}
	c := &Coalesce{
		key:     key,
		pending: map[any]*span{},
	}
	c.init(name, 1, c.processOne, c.finish, spanTable{c})
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
		end, key, ok := c.ends.Peek()
		if !ok || end >= e.Start {
			break
		}
		c.ends.Pop()
		p := c.pending[key]
		if p == nil || p.value.End != end {
			continue // stale: span was extended or already emitted
		}
		c.add(p.value)
		c.holds.Remove(p.hold)
		delete(c.pending, key)
	}

	k := c.key(e.Value)
	p := c.pending[k]
	switch {
	case p == nil:
		c.pending[k] = &span{value: e, hold: c.holds.Push(e.Start)}
	case e.Start <= p.value.End: // overlap or adjacency: extend
		if e.End > p.value.End {
			p.value.End = e.End
			c.ends.Push(p.value.End, k)
		}
		return
	default: // gap: the old span is final, and e opens the key's next
		c.add(p.value)
		p.value = e
		c.holds.Set(p.hold, e.Start)
	}
	c.ends.Push(e.End, k)
}

func (c *Coalesce) finish() {
	// Canonical key order: equal-Start spans tie in the order buffer by
	// insertion sequence, so flushing in map order would be nondeterministic.
	keys := make([]any, 0, len(c.pending))
	for k := range c.pending {
		keys = append(keys, k)
	}
	sortByKey(keys, func(k any) any { return k })
	for _, k := range keys {
		p := c.pending[k]
		c.add(p.value)
		c.holds.Remove(p.hold)
		delete(c.pending, k)
	}
}

// PendingSpans returns the number of open spans — for memory accounting.
func (c *Coalesce) PendingSpans() int {
	c.ProcMu.Lock()
	defer c.ProcMu.Unlock()
	return len(c.pending)
}
