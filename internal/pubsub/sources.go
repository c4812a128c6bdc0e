package pubsub

import (
	"context"
	"sync/atomic"

	"pipes/internal/temporal"
)

// Emitter is the paper's per-element active source: one element per
// EmitNext call. It is the edge interface for sources outside the engine
// (file and protocol adapters) and for Drive; the engine itself drives
// BatchEmitters.
type Emitter interface {
	Source
	// EmitNext publishes the next element to the subscribers and reports
	// whether more elements may follow. On exhaustion it signals done and
	// returns false.
	EmitNext() bool
}

// BatchEmitter is an active source driven stepwise, one frame per
// EmitBatch call. The scheduler activates emitters this way. Engine
// sources implement EmitBatch and delegate EmitNext to EmitBatch(1).
type BatchEmitter interface {
	Emitter
	// EmitBatch publishes the next frame of at most max elements
	// (max <= 0 means one) and reports how many were published and
	// whether more may follow. A source with nothing ready right now
	// returns (0, true) without waiting; the scheduler retries it only
	// when its worker wakes, so a source fed from outside the engine is
	// autonomous instead (ChanSource: Run on a thread of its own). On
	// exhaustion it signals done and returns (0, false).
	EmitBatch(max int) (n int, more bool)
}

// elementEmitter is the edge adapter driving a per-element Emitter in
// frames: up to max EmitNext calls per EmitBatch.
type elementEmitter struct{ Emitter }

func (a elementEmitter) EmitBatch(max int) (int, bool) {
	if max <= 0 {
		max = 1
	}
	for n := 0; n < max; n++ {
		if !a.EmitNext() {
			return n, false
		}
	}
	return max, true
}

// FrameEmitter returns e's frame-publishing identity: e itself when it is
// a BatchEmitter, the edge adapter around a per-element Emitter otherwise.
func FrameEmitter(e Emitter) BatchEmitter {
	if be, ok := e.(BatchEmitter); ok {
		return be
	}
	return elementEmitter{e}
}

// Drive runs an emitter to exhaustion synchronously, one element per
// step.
func Drive(e Emitter) {
	for e.EmitNext() {
	}
}

// DriveBatched runs a batch emitter to exhaustion synchronously, frame
// elements per activation.
func DriveBatched(e BatchEmitter, frame int) {
	for {
		if _, more := e.EmitBatch(frame); !more {
			return
		}
	}
}

// SliceSource publishes a fixed, pre-ordered slice of elements. It is the
// workhorse of tests and of ingesting finite historical data.
type SliceSource struct {
	SourceBase
	elems []temporal.Element
	pos   atomic.Int64 // atomic so Remaining can be polled during a run
}

// NewSliceSource returns a source emitting elems in order.
func NewSliceSource(name string, elems []temporal.Element) *SliceSource {
	return &SliceSource{SourceBase: NewSourceBase(name), elems: elems}
}

// EmitNext implements Emitter.
func (s *SliceSource) EmitNext() bool { _, more := s.EmitBatch(1); return more }

// EmitBatch implements BatchEmitter: the next up-to-max elements are
// published as a zero-copy view of the backing slice. Publishing a view is
// legal under the temporal.Batch borrow contract: subscribers read the
// frame only for the duration of the call and never write through it
// (TransferBatch annotates into its own scratch when a hook is
// installed). At most one goroutine may emit at a time (the scheduler
// guarantees this via single-owner task activation).
func (s *SliceSource) EmitBatch(max int) (int, bool) {
	p := int(s.pos.Load())
	if p >= len(s.elems) {
		s.SignalDone()
		return 0, false
	}
	n := 1
	if max > 1 {
		n = min(max, len(s.elems)-p)
	}
	s.pos.Store(int64(p + n))
	s.TransferBatch(s.elems[p : p+n])
	return n, true
}

// Remaining returns the number of unpublished elements.
func (s *SliceSource) Remaining() int { return len(s.elems) - int(s.pos.Load()) }

// FuncSource adapts a generator function to a source. The function returns
// the next element and false when exhausted.
type FuncSource struct {
	SourceBase
	next func() (temporal.Element, bool)
	// frame is the reusable scratch EmitBatch publishes (single emitter,
	// and the borrow ends when TransferBatch returns).
	frame temporal.Batch
}

// NewFuncSource returns a source driven by next.
func NewFuncSource(name string, next func() (temporal.Element, bool)) *FuncSource {
	return &FuncSource{SourceBase: NewSourceBase(name), next: next}
}

// EmitNext implements Emitter.
func (s *FuncSource) EmitNext() bool { _, more := s.EmitBatch(1); return more }

// EmitBatch implements BatchEmitter: up to max generator pulls fill the
// reusable scratch frame, published in one TransferBatch. Exhaustion
// mid-frame publishes the partial frame before signalling done.
func (s *FuncSource) EmitBatch(max int) (int, bool) {
	if max <= 0 {
		max = 1
	}
	frame := s.frame[:0]
	more := true
	for len(frame) < max {
		e, ok := s.next()
		if !ok {
			more = false
			break
		}
		frame = append(frame, e)
	}
	s.frame = frame
	s.TransferBatch(frame)
	if !more {
		s.SignalDone()
	}
	return len(frame), more
}

// ChanSource adapts a Go channel of elements to a source: the idiomatic
// wrapper for autonomous data sources (sensors, network feeds) that push
// asynchronously. It is a push source: Run, on the source's own thread
// (sched.Scheduler.Go), publishes what arrives, and nothing polls it.
type ChanSource struct {
	SourceBase
	ch    <-chan temporal.Element
	frame temporal.Batch // reusable scratch Run publishes
}

// NewChanSource returns a source fed by ch.
func NewChanSource(name string, ch <-chan temporal.Element) *ChanSource {
	return &ChanSource{SourceBase: NewSourceBase(name), ch: ch}
}

// Run publishes frames until the channel closes (then signals done) or ctx
// is cancelled (then signals done without draining). A frame is one
// element waited for plus what is already queued behind it, up to
// FrameCap: it never waits to fill. Run returns ctx.Err() on cancellation
// and nil on clean channel closure, and must be the channel's only
// receiver.
func (s *ChanSource) Run(ctx context.Context) error {
	for {
		var e temporal.Element
		ok := false
		//pipesvet:allow nogoroutine ChanSource is the sanctioned entry adapter between external producers and the graph
		select {
		case <-ctx.Done(): //pipesvet:allow nogoroutine cancellation receive on the source's own thread, outside the operator graph
			s.SignalDone()
			return ctx.Err()
		case e, ok = <-s.ch: //pipesvet:allow nogoroutine external-producer receive on the source's own thread, outside the operator graph
		}
		if !ok {
			s.SignalDone()
			return nil
		}
		frame := append(s.frame[:0], e)
		// Run is the only receiver, so the len(ch) queued elements are
		// there to take without waiting.
		for n := min(len(s.ch), FrameCap-1); n > 0; n-- {
			frame = append(frame, <-s.ch) //pipesvet:allow nogoroutine receive of an element already queued, on the source's own thread
		}
		s.frame = frame
		s.TransferBatch(frame)
	}
}
