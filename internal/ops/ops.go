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
	"maps"

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
// Map with a mapper that writes each result into a row the node owns
// instead of returning a fresh one. Row i of the pending output frame is
// pool slot i, cleared and refilled only once the frame that held it has
// been published, so the pool never exceeds one frame. The node lends its
// rows (pubsub.SourceBase.Lend): a subscriber that only reads values in
// the call (pubsub.ValueBorrower) gets them as they are, every other one
// a maps.Clone per row — what a fresh row per element cost before.
type Project[M ~map[string]any] struct {
	pubsub.PipeBase
	fill func(v any, row M)
	rows []M
}

// NewProject returns a projection operator; fill writes the result for v
// into an empty row.
func NewProject[M ~map[string]any](name string, fill func(v any, row M)) *Project[M] {
	if fill == nil {
		panic("ops: nil projection")
	}
	p := &Project[M]{PipeBase: pubsub.NewPipeBase(name, 1), fill: fill}
	p.Lend(func(v any) any { return maps.Clone(v.(M)) })
	return p
}

// ProcessBatch implements pubsub.BatchSink.
func (p *Project[M]) ProcessBatch(b temporal.Batch, _ int) {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	for _, e := range b {
		i := p.Pending()
		if i == len(p.rows) {
			p.rows = append(p.rows, make(M))
		}
		row := p.rows[i]
		clear(row)
		p.fill(e.Value, row)
		p.Emit(temporal.Derive(row, e.Interval, e))
	}
	p.Flush()
}

// ordered is the ordered-output core of every operator whose raw results
// can be produced out of Start order: join, mjoin, union, difference and
// intersect, group-by, coalesce, DSTREAM, split, the partitioned window
// and the sequencer. It is a PipeBase plus the order buffer plus the one
// release rule. Pending results wait in a min-heap on Start and leave
// once no future result can precede them: a result is released when its
// Start is at most
//
//	min(the minimum watermark over open inputs, the operator's holdback)
//
// where a done input (PipeBase's one done record) counts as +inf. The
// holdback is one lazily pruned heap of (start, key) entries: an operator
// pushes an entry whenever a key's earliest start it may still emit from
// changes, and supplies live, which reports whether an entry still
// describes its key; stale entries are popped when they reach the top.
// An operator may also supply hold, an extra holdback term computed at
// each release. The core records the start it released last: no later
// result starts below it.
//
// The core owns the done wiring: an input's done releases, and the end
// of the stream runs the operator's tail (which may add results), then
// flushes every pending result in Start order. It also carries the
// operator's checkpointable state (parts), itself the last part.
type ordered struct {
	pubsub.PipeBase
	parts
	out      xds.Heap[temporal.Time, temporal.Element] // by Start
	wm       []temporal.Time
	lows     xds.Heap[temporal.Time, any] // key may still emit from lb on
	live     func(lb temporal.Time, key any) bool
	hold     func() temporal.Time
	released temporal.Time
}

// init sets the core up in place (the done hooks capture its address).
// live may be nil for an operator without a holdback, tail for one
// whose end of stream only flushes. ps are the operator's other parts;
// the core follows them.
func (c *ordered) init(name string, inputs int, live func(lb temporal.Time, key any) bool, tail func(), ps ...part) {
	c.PipeBase = pubsub.NewPipeBase(name, inputs)
	c.declare(&c.ProcMu, append(ps, c)...)
	c.live = live
	c.wm = make([]temporal.Time, inputs)
	for i := range c.wm {
		c.wm[i] = temporal.MinTime
	}
	c.released = temporal.MinTime
	c.OnInputDone = func(int) { c.release() }
	c.OnAllDone = func() {
		if tail != nil {
			tail()
		}
		c.releaseTo(temporal.MaxTime)
	}
}

// add buffers a pending result.
func (c *ordered) add(e temporal.Element) { c.out.Push(e.Start, e) }

// holdBack records that key may still emit from lb on.
func (c *ordered) holdBack(lb temporal.Time, key any) { c.lows.Push(lb, key) }

// progress advances input's watermark to start (watermarks never
// regress) and releases: the one call per processed element.
func (c *ordered) progress(input int, start temporal.Time) {
	if start > c.wm[input] {
		c.wm[input] = start
	}
	c.release()
}

// release emits, in Start order, every pending result no future result
// can precede. Callers hold ProcMu.
func (c *ordered) release() {
	bound := temporal.MaxTime
	for i, w := range c.wm {
		if w < bound && !c.InputDone(i) {
			bound = w
		}
	}
	if c.hold != nil {
		bound = min(bound, c.hold())
	}
	if lb, ok := c.low(); ok {
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
		_, top, _ := c.out.Pop()
		c.released = start
		c.Emit(top)
	}
}

// low returns the earliest live holdback start, popping the stale
// entries above it; ok is false when nothing holds back.
func (c *ordered) low() (lb temporal.Time, ok bool) {
	for c.live != nil {
		lb, key, ok := c.lows.Peek()
		if !ok || c.live(lb, key) {
			return lb, ok
		}
		c.lows.Pop()
	}
	return 0, false
}

// buffered returns the number of pending results.
func (c *ordered) buffered() int { return c.out.Len() }
