package ops

import (
	"fmt"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// TimeWindow is the interval window: it rewrites each element's validity
// and nothing else, so it holds no state. An element starting at s is
// valid during [s', s'+size), where s' is s floored to a multiple of the
// granule (s itself for granule 1). An end past MaxTime is clamped to it,
// a start floored past MinTime to MinTime, and a size of MaxTime is
// unbounded: every element then ends at MaxTime, whatever its Start. The
// constructors below are the CQL windows it covers.
type TimeWindow struct {
	pubsub.PipeBase
	size, granule temporal.Time
}

func newTimeWindow(name string, size, granule temporal.Time) *TimeWindow {
	if size <= 0 {
		panic("ops: window size must be positive")
	}
	return &TimeWindow{PipeBase: pubsub.NewPipeBase(name, 1), size: size, granule: granule}
}

// NewTimeWindow returns a sliding time window of the given positive size
// (CQL: RANGE size): at any instant t the snapshot contains the values
// that arrived during (t-size, t].
func NewTimeWindow(name string, size temporal.Time) *TimeWindow {
	return newTimeWindow(name, size, 1)
}

// NewTumblingWindow returns a tumbling window of the given positive size
// (CQL: RANGE size SLIDE size): an element arriving at s is valid exactly
// during its granule [⌊s/size⌋·size, ⌊s/size⌋·size + size). Combined with
// a downstream aggregate this yields the classic "report every g the last
// g" query shape.
func NewTumblingWindow(name string, size temporal.Time) *TimeWindow {
	return newTimeWindow(name, size, size)
}

// NewNowWindow returns a NOW window (CQL: NOW), which restricts each
// element to the single instant of its arrival.
func NewNowWindow(name string) *TimeWindow { return newTimeWindow(name, 1, 1) }

// NewUnboundedWindow returns an unbounded window (CQL: RANGE UNBOUNDED),
// which gives every element unbounded validity — the stream-to-relation
// mapping for monotone accumulation.
func NewUnboundedWindow(name string) *TimeWindow {
	return newTimeWindow(name, temporal.MaxTime, 1)
}

// ProcessBatch implements pubsub.BatchSink.
func (w *TimeWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	for _, e := range b {
		w.Emit(e.WithInterval(w.interval(e.Start)))
	}
	w.Flush()
}

// interval is the window's one rule: s's granule start, plus the size.
func (w *TimeWindow) interval(s temporal.Time) temporal.Interval {
	var r temporal.Time // s's offset into its granule
	if w.granule > 1 {
		if r = s % w.granule; r < 0 {
			r += w.granule
		}
	}
	start, end := s-r, s+(w.size-r)
	if start > s { // the granule begins before MinTime
		start = temporal.MinTime
	}
	if end < s || w.size == temporal.MaxTime {
		end = temporal.MaxTime
	}
	return temporal.NewInterval(start, end)
}

// CountWindow implements the count-based window (CQL: ROWS n): an element
// stays valid from its arrival until the n-th later element arrives and
// displaces it. Elements never displaced (the final n) remain valid
// forever and are emitted at end-of-stream.
type CountWindow struct {
	pubsub.PipeBase
	parts
	n   int
	buf xds.Queue[temporal.Element]
}

// NewCountWindow returns a count window of n rows, n > 0.
func NewCountWindow(name string, n int) *CountWindow {
	if n <= 0 {
		panic("ops: count window size must be positive")
	}
	w := &CountWindow{PipeBase: pubsub.NewPipeBase(name, 1), n: n}
	w.declare(&w.ProcMu, queue{Queue: &w.buf})
	w.OnAllDone = w.fflush
	return w
}

// ProcessBatch implements pubsub.BatchSink.
func (w *CountWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	for _, e := range b {
		if w.buf.Len() == w.n {
			old, _ := w.buf.Dequeue()
			end := e.Start
			if end <= old.Start {
				end = old.Start + 1 // simultaneous arrivals: keep interval non-empty
			}
			w.Emit(old.WithInterval(temporal.NewInterval(old.Start, end)))
		}
		w.buf.Enqueue(e)
	}
	w.Flush()
}

func (w *CountWindow) fflush() {
	for {
		old, ok := w.buf.Dequeue()
		if !ok {
			return
		}
		w.Emit(old.WithInterval(temporal.NewInterval(old.Start, temporal.MaxTime)))
	}
}

// PartitionedWindow implements the partitioned count window (CQL:
// PARTITION BY key ROWS n): an independent ROWS-n window per key value.
// Because displacements interleave across partitions, emissions pass
// through an order buffer held back by the oldest still-buffered element.
// A partition is a list of at most n nodes in the keyed table, its
// holdback entry at its oldest element's Start (MaxTime once flushed).
type PartitionedWindow struct {
	ordered
	key     KeyFunc
	n       int
	windows keyed[struct{}] // each partition's elements in arrival order
}

// NewPartitionedWindow returns a per-key ROWS-n window.
func NewPartitionedWindow(name string, key KeyFunc, n int) *PartitionedWindow {
	if key == nil {
		panic("ops: nil partition key")
	}
	if n <= 0 {
		panic("ops: partition window size must be positive")
	}
	w := &PartitionedWindow{key: key, n: n}
	w.windows = keyed[struct{}]{ids: map[any]int32{}, holds: &w.holds,
		entry: appendPartition, read: w.readPartitions}
	w.init(name, 1, w.processOne, w.fflush, &w.windows)
	return w
}

// processOne is the per-element body, under ProcMu.
func (w *PartitionedWindow) processOne(_ int, e temporal.Element) {
	k := w.key(e.Value)
	id, ok := w.windows.ids[k]
	if !ok {
		id = w.windows.add(k, struct{}{}, e.Start)
	} else if w.windows.Count(id) == w.n {
		old := w.windows.Remove(w.windows.Head(id))
		end := e.Start
		if end <= old.Start {
			end = old.Start + 1
		}
		w.add(old.WithInterval(temporal.NewInterval(old.Start, end)))
	}
	w.windows.Append(id, e)
	w.holds.Set(id, w.windows.At(w.windows.Head(id)).Start)
}

func (w *PartitionedWindow) fflush() {
	w.windows.inKeyOrder(func(id int32) {
		for s := w.windows.Head(id); s >= 0; s = w.windows.Head(id) {
			old := w.windows.Remove(s)
			w.add(old.WithInterval(temporal.NewInterval(old.Start, temporal.MaxTime)))
		}
		w.holds.Set(id, temporal.MaxTime)
	})
}

// String describes the window for EXPLAIN output.
func (w *TimeWindow) String() string {
	return fmt.Sprintf("%s[range=%d slide=%d]", w.Name(), w.size, w.granule)
}
