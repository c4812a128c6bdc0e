package pubsub

import (
	"sync"
	"sync/atomic"

	"pipes/internal/temporal"
)

// Collector is a terminal sink that stores every received element. It is
// safe for concurrent publishers and offers a channel-based completion
// signal, making it the standard harness for tests and examples.
type Collector struct {
	name string

	mu    sync.Mutex
	elems []temporal.Element
	open  int
	done  chan struct{}
	once  sync.Once
}

// NewCollector returns a collector expecting done signals on `inputs`
// distinct inputs (use 1 for a single upstream).
func NewCollector(name string, inputs int) *Collector {
	if inputs <= 0 {
		panic("pubsub: collector inputs must be positive")
	}
	return &Collector{name: name, open: inputs, done: make(chan struct{})}
}

// Name implements Node.
func (c *Collector) Name() string { return c.name }

// ProcessBatch implements BatchSink: the append copies the elements out
// of the borrowed frame.
func (c *Collector) ProcessBatch(b temporal.Batch, _ int) {
	c.mu.Lock()
	c.elems = append(c.elems, b...)
	c.mu.Unlock()
}

// KeepsValues implements ValueKeeper: the collector stores what it is
// handed, so a lending publisher gives it owned copies.
func (c *Collector) KeepsValues() {}

// Done implements Sink.
func (c *Collector) Done(_ int) {
	c.mu.Lock()
	c.open--
	fire := c.open <= 0
	c.mu.Unlock()
	if fire {
		c.once.Do(func() { close(c.done) })
	}
}

// Elements returns a snapshot of everything received so far.
func (c *Collector) Elements() []temporal.Element {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]temporal.Element, len(c.elems))
	copy(out, c.elems)
	return out
}

// Values returns the received values, discarding intervals.
func (c *Collector) Values() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]any, len(c.elems))
	for i, e := range c.elems {
		out[i] = e.Value
	}
	return out
}

// Len returns the number of received elements.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.elems)
}

// DoneC returns a channel closed once all inputs have signalled done.
func (c *Collector) DoneC() <-chan struct{} { return c.done }

// Wait blocks until all inputs have signalled done.
func (c *Collector) Wait() { <-c.done } //pipesvet:allow nogoroutine graph-exit adapter: callers block outside the operator graph

// FuncSink invokes a callback per element; handy for wiring query results
// into applications (the paper's "purpose-built sinks").
type FuncSink struct {
	name   string
	fn     func(e temporal.Element, input int)
	onDone func()
	open   atomic.Int32
}

// NewFuncSink returns a sink calling fn per element and onDone (may be
// nil) once all `inputs` inputs signalled done.
func NewFuncSink(name string, inputs int, fn func(e temporal.Element, input int), onDone func()) *FuncSink {
	if inputs <= 0 {
		panic("pubsub: func sink inputs must be positive")
	}
	s := &FuncSink{name: name, fn: fn, onDone: onDone}
	s.open.Store(int32(inputs))
	return s
}

// Name implements Node.
func (s *FuncSink) Name() string { return s.name }

// ProcessBatch implements BatchSink.
func (s *FuncSink) ProcessBatch(b temporal.Batch, input int) {
	for _, e := range b {
		s.fn(e, input)
	}
}

// KeepsValues implements ValueKeeper: the callback may keep what it
// sees, so a lending publisher gives the sink owned copies.
func (s *FuncSink) KeepsValues() {}

// Done implements Sink.
func (s *FuncSink) Done(_ int) {
	if s.open.Add(-1) == 0 && s.onDone != nil {
		s.onDone()
	}
}

// Counter is a terminal sink that only counts elements — zero-allocation,
// used by benchmarks to measure pure transport cost.
type Counter struct {
	name  string
	count atomic.Int64
	open  atomic.Int64
	done  chan struct{}
	once  sync.Once
}

// NewCounter returns a counter expecting done on `inputs` inputs.
func NewCounter(name string, inputs int) *Counter {
	c := &Counter{name: name, done: make(chan struct{})}
	c.open.Store(int64(inputs))
	return c
}

// Name implements Node.
func (c *Counter) Name() string { return c.name }

// ProcessBatch implements BatchSink.
func (c *Counter) ProcessBatch(b temporal.Batch, _ int) { c.count.Add(int64(len(b))) }

// Done implements Sink.
func (c *Counter) Done(_ int) {
	if c.open.Add(-1) == 0 {
		c.once.Do(func() { close(c.done) })
	}
}

// Count returns the number of elements seen.
func (c *Counter) Count() int64 { return c.count.Load() }

// Wait blocks until all inputs signalled done.
func (c *Counter) Wait() { <-c.done } //pipesvet:allow nogoroutine graph-exit adapter: callers block outside the operator graph
