package ops

import (
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// setOp is the temporal multiset operator over two inputs that Difference
// and Intersect share; they differ only in mult, the output multiplicity
// of a value given its multiplicities m₀, m₁ in the two input snapshots.
// Values are compared via the key function (identity by default; values
// must be comparable).
//
// The ordered core applies both inputs merged in global Start order; per
// key the operator tracks the two active multiplicities and emits one
// batch of output copies per maximal span of constant multiplicity. A
// key's counts are the record of its list in the keyed table; the expiry
// heap holds one pointer-free entry per live element: its End, its key's
// id and its input.
type setOp struct {
	ordered
	key    KeyFunc
	mult   func(m0, m1 int) int
	keys   keyed[setKey]
	expiry xds.Heap[temporal.Time, setEnd] // every live element's end, by End
}

// Difference computes the temporal multiset difference S₀ ∖ S₁: at every
// instant t the output snapshot contains each value max(0, m₀−m₁) times,
// where mᵢ is its multiplicity in input i's snapshot.
type Difference struct{ setOp }

// Intersect computes the temporal multiset intersection S₀ ∩ S₁: at every
// instant the output contains each value min(m₀, m₁) times. It completes
// the extended relational algebra alongside Union and Difference.
type Intersect struct{ setOp }

// setKey is one key's record.
type setKey struct {
	key    any
	value  any // representative output value for the key
	counts [2]int
	lb     temporal.Time
	trace  any // trace slot of the latest traced contributor
}

// setEnd is a pending interval end: one element of key id on input.
type setEnd struct{ id, input int32 }

// NewDifference returns the difference operator (input 0 minus input 1).
// A nil key compares whole values.
func NewDifference(name string, key KeyFunc) *Difference {
	d := &Difference{}
	d.setup(name, key, func(m0, m1 int) int { return m0 - m1 })
	return d
}

// NewIntersect returns the intersection operator. A nil key compares
// whole values (they must be comparable).
func NewIntersect(name string, key KeyFunc) *Intersect {
	in := &Intersect{}
	in.setup(name, key, func(m0, m1 int) int { return min(m0, m1) })
	return in
}

// setup sets o up in place: the done hooks capture its address.
func (o *setOp) setup(name string, key KeyFunc, mult func(m0, m1 int) int) {
	if key == nil {
		key = func(v any) any { return v }
	}
	o.key, o.mult = key, mult
	o.keys = keyed[setKey]{ids: map[any]int32{}, holds: &o.holds,
		copy: captureSetKey, entry: appendSetKey, read: o.readKeys}
	o.init(name, 2, o.processOne, func() { o.advance(temporal.MaxTime) }, &o.keys, setExpiry{o})
}

// processOne is the per-element body, under ProcMu.
func (o *setOp) processOne(input int, e temporal.Element) {
	o.advance(e.Start)
	k := o.key(e.Value)
	id, ok := o.keys.ids[k]
	if !ok {
		id = o.keys.add(k, setKey{key: k, value: e.Value, lb: e.Start}, e.Start)
	} else {
		o.emitSpan(id, e.Start)
	}
	st := o.keys.Rec(id)
	st.counts[input]++
	if e.Trace != nil {
		st.trace = e.Trace
	}
	o.expiry.Push(e.End, setEnd{id: id, input: int32(input)})
}

// advance processes expiry boundaries up to and including t.
func (o *setOp) advance(t temporal.Time) {
	for {
		end, ev, ok := o.expiry.Peek()
		if !ok || end > t {
			return
		}
		o.expiry.Pop()
		o.emitSpan(ev.id, end)
		st := o.keys.Rec(ev.id)
		if st.counts[ev.input]--; st.counts == [2]int{} {
			o.keys.drop(st.key, ev.id)
		}
	}
}

// emitSpan buffers mult(m₀, m₁) copies of key id's value over [lb, to)
// and moves its open span's left boundary to to, if it lies before.
func (o *setOp) emitSpan(id int32, to temporal.Time) {
	st := o.keys.Rec(id)
	if st.lb >= to {
		return
	}
	m := o.mult(st.counts[0], st.counts[1])
	for i := 0; i < m; i++ {
		o.add(temporal.Element{Value: st.value, Interval: temporal.NewInterval(st.lb, to), Trace: st.trace})
	}
	st.lb = to
	o.holds.Set(id, to)
}
