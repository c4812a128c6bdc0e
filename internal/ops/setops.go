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
// batch of output copies per maximal span of constant multiplicity.
type setOp struct {
	ordered
	key    KeyFunc
	mult   func(m0, m1 int) int
	state  map[any]*diffState
	expiry xds.Heap[temporal.Time, diffExpiry] // by End
}

// Difference computes the temporal multiset difference S₀ ∖ S₁: at every
// instant t the output snapshot contains each value max(0, m₀−m₁) times,
// where mᵢ is its multiplicity in input i's snapshot.
type Difference struct{ setOp }

// Intersect computes the temporal multiset intersection S₀ ∩ S₁: at every
// instant the output contains each value min(m₀, m₁) times. It completes
// the extended relational algebra alongside Union and Difference.
type Intersect struct{ setOp }

type diffState struct {
	value  any // representative output value for the key
	counts [2]int
	lb     temporal.Time
	trace  any   // trace slot of the latest traced contributor
	hold   int32 // the core's holdback entry at lb
}

// diffExpiry is a pending interval end: one element of key on input.
type diffExpiry struct {
	key   any
	input int
}

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

// setup sets d up in place: the done hooks capture its address.
func (d *setOp) setup(name string, key KeyFunc, mult func(m0, m1 int) int) {
	if key == nil {
		key = func(v any) any { return v }
	}
	d.key, d.mult = key, mult
	d.state = map[any]*diffState{}
	d.init(name, 2, d.processOne, func() { d.advance(temporal.MaxTime) },
		setKeys{d}, setExpiry{d})
}

// processOne is the per-element body, under ProcMu.
func (d *setOp) processOne(input int, e temporal.Element) {
	d.advance(e.Start)
	k := d.key(e.Value)
	st := d.state[k]
	if st == nil {
		st = &diffState{value: e.Value, lb: e.Start, hold: d.holds.Push(e.Start)}
		d.state[k] = st
	} else if st.lb < e.Start {
		d.emitSpan(st, e.Start)
		st.lb = e.Start
		d.holds.Set(st.hold, st.lb)
	}
	st.counts[input]++
	if e.Trace != nil {
		st.trace = e.Trace
	}
	d.expiry.Push(e.End, diffExpiry{key: k, input: input})
}

// advance processes expiry boundaries up to and including t.
func (d *setOp) advance(t temporal.Time) {
	for {
		end, ev, ok := d.expiry.Peek()
		if !ok || end > t {
			return
		}
		d.expiry.Pop()
		st := d.state[ev.key]
		if st == nil {
			continue
		}
		if st.lb < end {
			d.emitSpan(st, end)
			st.lb = end
			d.holds.Set(st.hold, st.lb)
		}
		st.counts[ev.input]--
		if st.counts[0] == 0 && st.counts[1] == 0 {
			d.holds.Remove(st.hold)
			delete(d.state, ev.key)
		}
	}
}

// emitSpan buffers mult(m₀, m₁) copies of the key's value over
// [st.lb, to).
func (d *setOp) emitSpan(st *diffState, to temporal.Time) {
	m := d.mult(st.counts[0], st.counts[1])
	for i := 0; i < m; i++ {
		d.add(temporal.Element{Value: st.value, Interval: temporal.NewInterval(st.lb, to), Trace: st.trace})
	}
}
