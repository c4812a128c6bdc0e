package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// setOp is the temporal multiset operator over two inputs that Difference
// and Intersect share; they differ only in mult, the output multiplicity
// of a value given its multiplicities m₀, m₁ in the two input snapshots.
// Values are compared via the key function (identity by default; values
// must be comparable).
//
// Both inputs are internally merged into global Start order; per key the
// operator tracks the two active multiplicities and emits one batch of
// output copies per maximal span of constant multiplicity.
type setOp struct {
	pubsub.PipeBase
	key    KeyFunc
	mult   func(m0, m1 int) int
	inQ    [2]xds.Queue[temporal.Element]
	inDone [2]bool
	state  map[any]*diffState
	expiry *xds.Heap[diffExpiry]
	lows   *xds.Heap[lowEntry]
	out    *orderBuffer
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
	trace  any // trace slot of the latest traced contributor
}

type diffExpiry struct {
	end   temporal.Time
	key   any
	input int
}

// NewDifference returns the difference operator (input 0 minus input 1).
// A nil key compares whole values.
func NewDifference(name string, key KeyFunc) *Difference {
	d := &Difference{}
	d.init(name, key, func(m0, m1 int) int { return m0 - m1 })
	return d
}

// NewIntersect returns the intersection operator. A nil key compares
// whole values (they must be comparable).
func NewIntersect(name string, key KeyFunc) *Intersect {
	in := &Intersect{}
	in.init(name, key, func(m0, m1 int) int { return min(m0, m1) })
	return in
}

// init sets d up in place: the done hooks capture its address.
func (d *setOp) init(name string, key KeyFunc, mult func(m0, m1 int) int) {
	if key == nil {
		key = func(v any) any { return v }
	}
	*d = setOp{
		PipeBase: pubsub.NewPipeBase(name, 2),
		key:      key,
		mult:     mult,
		state:    map[any]*diffState{},
		expiry:   xds.NewHeap[diffExpiry](func(a, b diffExpiry) bool { return a.end < b.end }),
		lows:     xds.NewHeap[lowEntry](func(a, b lowEntry) bool { return a.lb < b.lb }),
		out:      newOrderBuffer(2),
	}
	d.inQ[0] = xds.NewQueue[temporal.Element]()
	d.inQ[1] = xds.NewQueue[temporal.Element]()
	d.OnInputDone = func(input int) {
		d.inDone[input] = true
		d.out.markDone(input)
		d.pump()
	}
	d.OnAllDone = func() {
		d.pump()
		d.advance(temporal.MaxTime)
		d.out.flush(d.Emit)
	}
}

// ProcessBatch implements pubsub.BatchSink.
func (d *setOp) ProcessBatch(b temporal.Batch, input int) {
	d.ProcMu.Lock()
	defer d.ProcMu.Unlock()
	for _, e := range b {
		d.inQ[input].Enqueue(e)
		d.out.observe(input, e.Start)
		d.pump()
	}
	d.Flush()
}

// pump applies queued arrivals in global Start order; an arrival is
// applicable once the other input's queue has a head (or is done) that
// proves no earlier element can arrive.
func (d *setOp) pump() {
	for {
		i := d.nextInput()
		if i < 0 {
			break
		}
		e, _ := d.inQ[i].Dequeue()
		d.apply(i, e)
	}
	d.out.release(d.bound(), d.Emit)
}

func (d *setOp) nextInput() int {
	h0, ok0 := d.inQ[0].Peek()
	h1, ok1 := d.inQ[1].Peek()
	switch {
	case ok0 && ok1:
		if h0.Start <= h1.Start {
			return 0
		}
		return 1
	case ok0 && d.inDone[1]:
		return 0
	case ok1 && d.inDone[0]:
		return 1
	}
	return -1
}

func (d *setOp) apply(input int, e temporal.Element) {
	d.advance(e.Start)
	k := d.key(e.Value)
	st := d.state[k]
	if st == nil {
		st = &diffState{value: e.Value, lb: e.Start}
		d.state[k] = st
	} else if st.lb < e.Start {
		d.emitSpan(st, e.Start)
		st.lb = e.Start
	}
	st.counts[input]++
	if e.Trace != nil {
		st.trace = e.Trace
	}
	d.expiry.Push(diffExpiry{end: e.End, key: k, input: input})
	d.lows.Push(lowEntry{lb: st.lb, key: k})
}

// advance processes expiry boundaries up to and including t.
func (d *setOp) advance(t temporal.Time) {
	for {
		ev, ok := d.expiry.Peek()
		if !ok || ev.end > t {
			return
		}
		d.expiry.Pop()
		st := d.state[ev.key]
		if st == nil {
			continue
		}
		if st.lb < ev.end {
			d.emitSpan(st, ev.end)
			st.lb = ev.end
			d.lows.Push(lowEntry{lb: st.lb, key: ev.key})
		}
		st.counts[ev.input]--
		if st.counts[0] == 0 && st.counts[1] == 0 {
			delete(d.state, ev.key)
		}
	}
}

// emitSpan buffers mult(m₀, m₁) copies of the key's value over
// [st.lb, to).
func (d *setOp) emitSpan(st *diffState, to temporal.Time) {
	m := d.mult(st.counts[0], st.counts[1])
	for i := 0; i < m; i++ {
		d.out.add(temporal.Element{Value: st.value, Interval: temporal.NewInterval(st.lb, to), Trace: st.trace})
	}
}

// bound is min(input watermarks, earliest open span start).
func (d *setOp) bound() temporal.Time {
	wm := d.out.watermark()
	// Queued-but-unapplied arrivals also hold back emission.
	for i := 0; i < 2; i++ {
		if h, ok := d.inQ[i].Peek(); ok && h.Start < wm {
			wm = h.Start
		}
	}
	for {
		low, ok := d.lows.Peek()
		if !ok {
			return wm
		}
		st := d.state[low.key]
		if st == nil || st.lb != low.lb {
			d.lows.Pop()
			continue
		}
		if low.lb < wm {
			return low.lb
		}
		return wm
	}
}

// MemoryUsage implements the metadata/memory reporter.
func (d *setOp) MemoryUsage() int {
	d.ProcMu.Lock()
	defer d.ProcMu.Unlock()
	return len(d.state)*72 + d.out.len()*64 + (d.inQ[0].Len()+d.inQ[1].Len())*64
}
