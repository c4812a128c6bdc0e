// Package cursor implements the demand-driven cursor algebra PIPES
// inherits from XXL: pull-based iterators over arbitrary objects with the
// classic operator set (selection, projection, joins, grouping, sorting),
// plus the data-flow translation operators [Graefe, 10] that convert
// between cursors and data-driven streams. This is how PIPES "gracefully
// combines data-driven and demand-driven query processing": persistent
// relations are cursors, live feeds are streams, and either can cross
// over (experiment E14; examples/auction joins a stream with a relation).
package cursor

import (
	"sort"

	"pipes/internal/aggregate"
)

// Cursor is a demand-driven iterator. Next returns the next value and
// false when exhausted; Close releases resources and may be called at any
// point (further Next calls return false).
type Cursor interface {
	Next() (any, bool)
	Close()
}

// sliceCursor iterates a slice.
type sliceCursor struct {
	data []any
	pos  int
}

// FromSlice returns a cursor over vals.
func FromSlice(vals []any) Cursor { return &sliceCursor{data: vals} }

// Next implements Cursor.
func (c *sliceCursor) Next() (any, bool) {
	if c.pos >= len(c.data) {
		return nil, false
	}
	v := c.data[c.pos]
	c.pos++
	return v, true
}

// Close implements Cursor.
func (c *sliceCursor) Close() { c.pos = len(c.data) }

// funcCursor adapts a generator function.
type funcCursor struct {
	next   func() (any, bool)
	closed bool
}

// FromFunc returns a cursor driven by next.
func FromFunc(next func() (any, bool)) Cursor { return &funcCursor{next: next} }

// Next implements Cursor.
func (c *funcCursor) Next() (any, bool) {
	if c.closed {
		return nil, false
	}
	v, ok := c.next()
	if !ok {
		c.closed = true
	}
	return v, ok
}

// Close implements Cursor.
func (c *funcCursor) Close() { c.closed = true }

// Collect drains a cursor into a slice and closes it.
func Collect(c Cursor) []any {
	defer c.Close()
	var out []any
	for {
		v, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Filter yields the elements of in satisfying pred.
func Filter(in Cursor, pred func(any) bool) Cursor {
	return FromFunc(func() (any, bool) {
		for {
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			if pred(v) {
				return v, true
			}
		}
	})
}

// Map yields fn applied to each element of in.
func Map(in Cursor, fn func(any) any) Cursor {
	return FromFunc(func() (any, bool) {
		v, ok := in.Next()
		if !ok {
			return nil, false
		}
		return fn(v), true
	})
}

// Take yields at most n elements of in.
func Take(in Cursor, n int) Cursor {
	seen := 0
	return FromFunc(func() (any, bool) {
		if seen >= n {
			return nil, false
		}
		v, ok := in.Next()
		if ok {
			seen++
		}
		return v, ok
	})
}

// Concat yields all elements of each cursor in turn.
func Concat(cs ...Cursor) Cursor {
	i := 0
	return FromFunc(func() (any, bool) {
		for i < len(cs) {
			if v, ok := cs[i].Next(); ok {
				return v, true
			}
			i++
		}
		return nil, false
	})
}

// NestedLoopsJoin joins left against a re-openable right side (the factory
// returns a fresh right cursor per left element) under pred.
func NestedLoopsJoin(left Cursor, right func() Cursor, pred func(l, r any) bool, combine func(l, r any) any) Cursor {
	var curL any
	var haveL bool
	var curR Cursor
	return FromFunc(func() (any, bool) {
		for {
			if !haveL {
				v, ok := left.Next()
				if !ok {
					return nil, false
				}
				curL, haveL = v, true
				curR = right()
			}
			for {
				r, ok := curR.Next()
				if !ok {
					break
				}
				if pred == nil || pred(curL, r) {
					return combine(curL, r), true
				}
			}
			curR.Close()
			haveL = false
		}
	})
}

// HashJoin equi-joins left and right by building a hash table over right.
func HashJoin(left, right Cursor, leftKey, rightKey func(any) any, combine func(l, r any) any) Cursor {
	table := map[any][]any{}
	for {
		r, ok := right.Next()
		if !ok {
			break
		}
		k := rightKey(r)
		table[k] = append(table[k], r)
	}
	right.Close()
	var matches []any
	var curL any
	return FromFunc(func() (any, bool) {
		for {
			if len(matches) > 0 {
				r := matches[0]
				matches = matches[1:]
				return combine(curL, r), true
			}
			l, ok := left.Next()
			if !ok {
				return nil, false
			}
			curL = l
			matches = table[leftKey(l)]
		}
	})
}

// Sort materialises in and yields it ordered by less.
func Sort(in Cursor, less func(a, b any) bool) Cursor {
	data := Collect(in)
	sort.SliceStable(data, func(i, j int) bool { return less(data[i], data[j]) })
	return FromSlice(data)
}

// Distinct yields the first element per key (identity when nil). Keys must
// be comparable.
func Distinct(in Cursor, key func(any) any) Cursor {
	if key == nil {
		key = func(v any) any { return v }
	}
	seen := map[any]bool{}
	return Filter(in, func(v any) bool {
		k := key(v)
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	})
}

// Grouped is one group's result.
type Grouped struct {
	Key any
	Agg any
}

// GroupBy materialises in, groups by key and folds each group with a fresh
// aggregate from the shared online-aggregation package — the same
// aggregates that serve the data-driven operators, the paper's code-reuse
// point.
func GroupBy(in Cursor, key func(any) any, factory aggregate.Factory) Cursor {
	groups := map[any]aggregate.Aggregate{}
	var order []any
	for {
		v, ok := in.Next()
		if !ok {
			break
		}
		k := key(v)
		agg := groups[k]
		if agg == nil {
			agg = factory()
			groups[k] = agg
			order = append(order, k)
		}
		agg.Insert(v)
	}
	in.Close()
	i := 0
	return FromFunc(func() (any, bool) {
		if i >= len(order) {
			return nil, false
		}
		k := order[i]
		i++
		return Grouped{Key: k, Agg: groups[k].Value()}, true
	})
}

// Aggregate folds the whole cursor into a single value.
func Aggregate(in Cursor, factory aggregate.Factory) any {
	agg := factory()
	for {
		v, ok := in.Next()
		if !ok {
			break
		}
		agg.Insert(v)
	}
	in.Close()
	return agg.Value()
}

// Skip discards the first n elements of in.
func Skip(in Cursor, n int) Cursor {
	skipped := false
	return FromFunc(func() (any, bool) {
		if !skipped {
			skipped = true
			for i := 0; i < n; i++ {
				if _, ok := in.Next(); !ok {
					return nil, false
				}
			}
		}
		return in.Next()
	})
}

// Merge combines pre-sorted cursors into one sorted cursor under less —
// the demand-driven counterpart of the Union operator's ordered merge.
func Merge(less func(a, b any) bool, cs ...Cursor) Cursor {
	type head struct {
		v  any
		ok bool
	}
	heads := make([]head, len(cs))
	primed := false
	return FromFunc(func() (any, bool) {
		if !primed {
			primed = true
			for i, c := range cs {
				v, ok := c.Next()
				heads[i] = head{v, ok}
			}
		}
		best := -1
		for i, h := range heads {
			if !h.ok {
				continue
			}
			if best < 0 || less(h.v, heads[best].v) {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		out := heads[best].v
		v, ok := cs[best].Next()
		heads[best] = head{v, ok}
		return out, true
	})
}
