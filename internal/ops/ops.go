// Package ops implements PIPES' temporal operator algebra: every operation
// of the extended relational algebra, defined over arbitrary objects and
// time intervals and realised in a non-blocking, data-driven way [Krämer &
// Seeger, "Operations on Data Streams"]. The algebra is snapshot
// equivalent to CQL's abstract semantics: for every operator op and every
// time instant t,
//
//	snapshot(op(S…), t) == relational_op(snapshot(S…, t)),
//
// where snapshot(S, t) is the multiset of values whose validity interval
// contains t. internal/snapshot implements the right-hand side directly
// and the test suite checks the equivalence on randomized inputs.
//
// All operators preserve the stream invariant (non-decreasing Start).
// Multi-input and reordering operators buffer pending results in an
// internal heap and release them as input watermarks advance; sources with
// unbounded validity intervals therefore require window operators upstream
// of stateful operators, exactly as the paper prescribes.
//
// Every operator states its logic once, as ProcessBatch: it takes the
// processing lock once per frame, runs its per-element body in frame
// order, Emits results into the PipeBase output frame and Flushes them as
// one downstream frame. Processing a frame is by definition processing its
// elements one by one, so behaviour never depends on how a stream is cut
// into frames (SEMANTICS.md §3.7; internal/harness checks the invariance).
package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// Predicate decides element inclusion for filters.
type Predicate func(v any) bool

// Mapper transforms a value.
type Mapper func(v any) any

// KeyFunc extracts a grouping key; the key must be comparable.
type KeyFunc func(v any) any

// Filter forwards exactly the elements whose value satisfies the
// predicate, leaving validity intervals untouched (temporal selection σ).
type Filter struct {
	pubsub.PipeBase
	pred Predicate
}

// NewFilter returns a selection operator.
func NewFilter(name string, pred Predicate) *Filter {
	if pred == nil {
		panic("ops: nil filter predicate")
	}
	return &Filter{PipeBase: pubsub.NewPipeBase(name, 1), pred: pred}
}

// ProcessBatch implements pubsub.BatchSink: a frame that passes entirely
// is forwarded as-is (the borrow nests through synchronous hops).
func (f *Filter) ProcessBatch(b temporal.Batch, _ int) {
	f.ProcMu.Lock()
	defer f.ProcMu.Unlock()
	i := 0
	for i < len(b) && f.pred(b[i].Value) {
		i++
	}
	if i == len(b) {
		f.TransferBatch(b)
		return
	}
	for _, e := range b[:i] {
		f.Emit(e)
	}
	for _, e := range b[i+1:] {
		if f.pred(e.Value) {
			f.Emit(e)
		}
	}
	f.Flush()
}

// Map transforms each value, leaving validity intervals untouched
// (temporal projection/function application π).
type Map struct {
	pubsub.PipeBase
	fn Mapper
}

// NewMap returns a mapping operator.
func NewMap(name string, fn Mapper) *Map {
	if fn == nil {
		panic("ops: nil map function")
	}
	return &Map{PipeBase: pubsub.NewPipeBase(name, 1), fn: fn}
}

// ProcessBatch implements pubsub.BatchSink.
func (m *Map) ProcessBatch(b temporal.Batch, _ int) {
	m.ProcMu.Lock()
	defer m.ProcMu.Unlock()
	for _, e := range b {
		m.Emit(temporal.Derive(m.fn(e.Value), e.Interval, e))
	}
	m.Flush()
}

// orderBuffer restores the stream-order invariant for operators whose raw
// results can be produced out of Start order (join, union, difference,
// group-by). Results are held in a min-heap on Start and released once no
// future result can precede them: a result is safe when its Start is at
// most the minimum watermark over all open inputs (a done input's
// watermark is +inf). Operators may additionally impose a holdback bound
// via the low function (e.g. group-by's earliest open span start).
type orderBuffer struct {
	heap *xds.Heap[temporal.Element]
	wm   []temporal.Time
	done []bool
}

func newOrderBuffer(inputs int) *orderBuffer {
	b := &orderBuffer{
		heap: xds.NewHeap[temporal.Element](func(a, c temporal.Element) bool { return a.Start < c.Start }),
		wm:   make([]temporal.Time, inputs),
		done: make([]bool, inputs),
	}
	for i := range b.wm {
		b.wm[i] = temporal.MinTime
	}
	return b
}

// observe advances input's watermark to start (watermarks never regress).
func (b *orderBuffer) observe(input int, start temporal.Time) {
	if start > b.wm[input] {
		b.wm[input] = start
	}
}

// markDone sets the input's watermark to +inf.
func (b *orderBuffer) markDone(input int) { b.done[input] = true }

// add buffers a pending result.
func (b *orderBuffer) add(e temporal.Element) { b.heap.Push(e) }

// watermark returns the minimum watermark over open inputs (MaxTime when
// all inputs are done).
func (b *orderBuffer) watermark() temporal.Time {
	min := temporal.MaxTime
	for i, w := range b.wm {
		if b.done[i] {
			continue
		}
		if w < min {
			min = w
		}
	}
	return min
}

// release emits every buffered result with Start <= bound via emit, in
// Start order. Callers pass min(watermark(), operator-specific holdback).
func (b *orderBuffer) release(bound temporal.Time, emit func(temporal.Element)) {
	for {
		top, ok := b.heap.Peek()
		if !ok || top.Start > bound {
			return
		}
		b.heap.Pop()
		emit(top)
	}
}

// flush emits everything remaining, in Start order.
func (b *orderBuffer) flush(emit func(temporal.Element)) {
	for {
		e, ok := b.heap.Pop()
		if !ok {
			return
		}
		emit(e)
	}
}

// len returns the number of buffered results.
func (b *orderBuffer) len() int { return b.heap.Len() }
