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
// Multi-input operators apply their inputs merged in (Start, input) order,
// and reordering operators buffer pending results in an internal heap and
// release them as the watermark advances; sources with unbounded validity
// intervals therefore require window operators upstream of stateful
// operators, exactly as the paper prescribes.
//
// A stateless operator states its logic once, as ProcessBatch: it takes
// the processing lock once per frame, runs its per-element body in frame
// order, Emits results into the PipeBase output frame and Flushes them as
// one downstream frame. An ordered operator states only its per-element
// body; the ordered core runs the frames through it the same way, merging
// the inputs first when there are several. Processing a frame is by
// definition processing its elements one by one, so behaviour never
// depends on how a stream is cut into frames (SEMANTICS.md §3.7;
// internal/harness checks the invariance).
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

// Project is the planner's temporal projection π over map-shaped rows:
// Map with a mapper that writes each result into a row the node takes
// from its free list instead of returning a fresh one. The node lends its
// rows (rows, pubsub.SourceBase.Lend): while a subscriber that only reads
// values in the call (pubsub.ValueBorrower) is subscribed, rows come back
// after each frame and are refilled, and every other subscriber gets a
// maps.Clone per row; while none is, every row is a new one, the
// subscribers'.
type Project[M ~map[string]any] struct {
	pubsub.PipeBase
	fill func(v any, row M)
	rows rows[M]
}

// NewProject returns a projection operator; fill writes the result for v
// into an empty row.
func NewProject[M ~map[string]any](name string, fill func(v any, row M)) *Project[M] {
	if fill == nil {
		panic("ops: nil projection")
	}
	p := &Project[M]{PipeBase: pubsub.NewPipeBase(name, 1), fill: fill}
	p.rows.lend(&p.SourceBase)
	return p
}

// ProcessBatch implements pubsub.BatchSink.
func (p *Project[M]) ProcessBatch(b temporal.Batch, _ int) {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	for _, e := range b {
		row := p.rows.get()
		p.fill(e.Value, row)
		p.Emit(temporal.Derive(row, e.Interval, e))
	}
	p.Flush()
}

// MemoryUsage implements the metadata/memory reporter: the free rows.
func (p *Project[M]) MemoryUsage() int {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	return p.rows.bytes()
}

// ordered is the core of every operator that keeps Start order itself:
// join, mjoin, union, difference and intersect, group-by, coalesce,
// DSTREAM, split, the partitioned window and the sequencer. It is a
// PipeBase, the operator's one ProcessBatch, the order buffer and the one
// release rule. An operator states only its per-element body, apply; the
// core runs each frame through it under ProcMu and Flushes once.
//
// With one input the core applies a frame's elements in frame order. With
// more it queues each input's arrivals and applies them merged: the
// queued head that sorts first by (Start, input), once every open input
// has an arrival queued (a done input holds nothing back). So a
// multi-input body sees one Start-ordered stream whose ties leave in
// input order, whatever the interleaving of the frames that brought them.
//
// After each applied element the core advances its watermark, the
// element's Start, and releases. Pending results are stored once, in a
// slab, and wait as slots in a min-heap on Start, so a sift moves 16
// pointer-free bytes, not an element. They leave once no future result
// can precede them: a result is released when its Start is at most
//
//	min(the watermark, the operator's holdback)
//
// The holdback is an indexed min-heap with one entry per key that may
// still emit, at the earliest start it may emit from, owned by the key's
// id in the operator's keyed table: the table pushes a key's entry when
// the key appears and removes it with the key, and the operator moves it
// whenever that start changes, so the heap holds exactly its live keys.
// An operator may also supply hold, an extra holdback term computed at
// each release. The core records the start it released last: no later
// result starts below it. A body whose results start at its element's
// Start (union, join, mjoin) Emits them instead.
//
// The core owns the done wiring: an input's done applies what its
// queue held back, and the end of the stream runs the operator's tail
// (which may add results), then flushes every pending result in Start
// order. It also carries the operator's checkpointable state (parts):
// the operator's parts, then the input queues, then the core itself.
type ordered struct {
	pubsub.PipeBase
	parts
	apply    func(input int, e temporal.Element)
	in       []xds.Queue[temporal.Element]  // one per input; nil with one input
	results  xds.Slab[temporal.Element]     // the pending results
	out      xds.Heap[temporal.Time, int32] // their slots, by Start
	wm       temporal.Time
	holds    xds.IndexedHeap[temporal.Time] // each key's earliest start it may emit from
	hold     func() temporal.Time
	released temporal.Time
}

// init sets the core up in place (the done hooks capture its address).
// apply is the operator's per-element body; tail may be nil for an
// operator whose end of stream only flushes. ps are the operator's other
// parts.
func (c *ordered) init(name string, inputs int, apply func(input int, e temporal.Element), tail func(), ps ...part) {
	c.PipeBase = pubsub.NewPipeBase(name, inputs)
	c.apply = apply
	if inputs > 1 {
		c.in = make([]xds.Queue[temporal.Element], inputs)
		for i := range c.in {
			ps = append(ps, queue{&c.in[i]})
		}
	}
	c.declare(&c.ProcMu, append(ps, c)...)
	c.wm, c.released = temporal.MinTime, temporal.MinTime
	c.OnInputDone = func(int) { c.pump() }
	c.OnAllDone = func() {
		if tail != nil {
			tail()
		}
		c.releaseTo(temporal.MaxTime)
	}
}

// ProcessBatch implements pubsub.BatchSink for every ordered operator.
func (c *ordered) ProcessBatch(b temporal.Batch, input int) {
	c.ProcMu.Lock()
	defer c.ProcMu.Unlock()
	if c.in == nil {
		for _, e := range b {
			c.apply(input, e)
			c.progress(e.Start)
		}
	} else {
		for _, e := range b {
			c.in[input].Enqueue(e)
		}
		c.pump()
	}
	c.Flush()
}

// pump applies queued arrivals in (Start, input) order for as long as
// every open input has one queued: until then an open input's next
// arrival may still sort first.
func (c *ordered) pump() {
	for {
		next, first := -1, temporal.MaxTime
		for i := range c.in {
			h, ok := c.in[i].Peek()
			switch {
			case !ok && !c.InputDone(i):
				return
			case ok && (next < 0 || h.Start < first):
				next, first = i, h.Start
			}
		}
		if next < 0 {
			return
		}
		e, _ := c.in[next].Dequeue()
		c.apply(next, e)
		c.progress(e.Start)
	}
}

// add buffers a pending result.
func (c *ordered) add(e temporal.Element) { c.out.Push(e.Start, c.results.Put(e)) }

// progress advances the watermark to start (it never regresses) and
// releases: the one call per applied element.
func (c *ordered) progress(start temporal.Time) {
	if start > c.wm {
		c.wm = start
	}
	c.release()
}

// release emits, in Start order, every pending result no future result
// can precede. Callers hold ProcMu.
func (c *ordered) release() {
	bound := c.wm
	if c.hold != nil {
		bound = min(bound, c.hold())
	}
	if lb, _, ok := c.holds.Peek(); ok {
		bound = min(bound, lb)
	}
	c.releaseTo(bound)
}

// releaseTo emits, in Start order, every pending result that starts at
// or before bound.
func (c *ordered) releaseTo(bound temporal.Time) {
	for {
		start, _, ok := c.out.Peek()
		if !ok || start > bound {
			return
		}
		_, slot, _ := c.out.Pop()
		c.released = start
		c.Emit(c.results.Take(slot))
	}
}

// pending returns the number of pending results.
func (c *ordered) pending() int { return c.out.Len() }

// buffered returns the number of pending results and queued arrivals.
func (c *ordered) buffered() int {
	n := c.pending()
	for i := range c.in {
		n += c.in[i].Len()
	}
	return n
}
