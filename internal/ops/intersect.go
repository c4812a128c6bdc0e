package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// Intersect computes the temporal multiset intersection S₀ ∩ S₁: at every
// instant the output contains each value min(m₀, m₁) times, where mᵢ is
// its multiplicity in input i's snapshot. It completes the extended
// relational algebra alongside Union and Difference and shares their
// merged-input, per-key span machinery.
type Intersect struct {
	pubsub.PipeBase
	key    KeyFunc
	inQ    [2]xds.Queue[temporal.Element]
	inDone [2]bool
	state  map[any]*diffState
	expiry *xds.Heap[diffExpiry]
	lows   *xds.Heap[lowEntry]
	out    *orderBuffer
}

// NewIntersect returns the intersection operator. A nil key compares
// whole values (they must be comparable).
func NewIntersect(name string, key KeyFunc) *Intersect {
	if key == nil {
		key = func(v any) any { return v }
	}
	in := &Intersect{
		PipeBase: pubsub.NewPipeBase(name, 2),
		key:      key,
		state:    map[any]*diffState{},
		expiry:   xds.NewHeap[diffExpiry](func(a, b diffExpiry) bool { return a.end < b.end }),
		lows:     xds.NewHeap[lowEntry](func(a, b lowEntry) bool { return a.lb < b.lb }),
		out:      newOrderBuffer(2),
	}
	in.inQ[0] = xds.NewQueue[temporal.Element]()
	in.inQ[1] = xds.NewQueue[temporal.Element]()
	in.OnInputDone = func(input int) {
		in.inDone[input] = true
		in.out.markDone(input)
		in.pump()
	}
	in.OnAllDone = func() {
		in.pump()
		in.advance(temporal.MaxTime)
		in.out.flush(in.Emit)
	}
	return in
}

// ProcessBatch implements pubsub.BatchSink.
func (in *Intersect) ProcessBatch(b temporal.Batch, input int) {
	in.ProcMu.Lock()
	defer in.ProcMu.Unlock()
	for _, e := range b {
		in.inQ[input].Enqueue(e)
		in.out.observe(input, e.Start)
		in.pump()
	}
	in.Flush()
}

func (in *Intersect) pump() {
	for {
		i := in.nextInput()
		if i < 0 {
			break
		}
		e, _ := in.inQ[i].Dequeue()
		in.apply(i, e)
	}
	in.out.release(in.bound(), in.Emit)
}

func (in *Intersect) nextInput() int {
	h0, ok0 := in.inQ[0].Peek()
	h1, ok1 := in.inQ[1].Peek()
	switch {
	case ok0 && ok1:
		if h0.Start <= h1.Start {
			return 0
		}
		return 1
	case ok0 && in.inDone[1]:
		return 0
	case ok1 && in.inDone[0]:
		return 1
	}
	return -1
}

func (in *Intersect) apply(input int, e temporal.Element) {
	in.advance(e.Start)
	k := in.key(e.Value)
	st := in.state[k]
	if st == nil {
		st = &diffState{value: e.Value, lb: e.Start}
		in.state[k] = st
	} else if st.lb < e.Start {
		in.emitSpan(st, e.Start)
		st.lb = e.Start
	}
	st.counts[input]++
	if e.Trace != nil {
		st.trace = e.Trace
	}
	in.expiry.Push(diffExpiry{end: e.End, key: k, input: input})
	in.lows.Push(lowEntry{lb: st.lb, key: k})
}

func (in *Intersect) advance(t temporal.Time) {
	for {
		ev, ok := in.expiry.Peek()
		if !ok || ev.end > t {
			return
		}
		in.expiry.Pop()
		st := in.state[ev.key]
		if st == nil {
			continue
		}
		if st.lb < ev.end {
			in.emitSpan(st, ev.end)
			st.lb = ev.end
			in.lows.Push(lowEntry{lb: st.lb, key: ev.key})
		}
		st.counts[ev.input]--
		if st.counts[0] == 0 && st.counts[1] == 0 {
			delete(in.state, ev.key)
		}
	}
}

// emitSpan buffers min(m₀, m₁) copies of the key's value over [st.lb, to).
func (in *Intersect) emitSpan(st *diffState, to temporal.Time) {
	m := st.counts[0]
	if st.counts[1] < m {
		m = st.counts[1]
	}
	for i := 0; i < m; i++ {
		in.out.add(temporal.Element{Value: st.value, Interval: temporal.NewInterval(st.lb, to), Trace: st.trace})
	}
}

func (in *Intersect) bound() temporal.Time {
	wm := in.out.watermark()
	for i := 0; i < 2; i++ {
		if h, ok := in.inQ[i].Peek(); ok && h.Start < wm {
			wm = h.Start
		}
	}
	for {
		low, ok := in.lows.Peek()
		if !ok {
			return wm
		}
		st := in.state[low.key]
		if st == nil || st.lb != low.lb {
			in.lows.Pop()
			continue
		}
		if low.lb < wm {
			return low.lb
		}
		return wm
	}
}

// MemoryUsage implements the metadata/memory reporter.
func (in *Intersect) MemoryUsage() int {
	in.ProcMu.Lock()
	defer in.ProcMu.Unlock()
	return len(in.state)*72 + in.out.len()*64 + (in.inQ[0].Len()+in.inQ[1].Len())*64
}
