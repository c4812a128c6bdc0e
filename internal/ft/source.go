package ft

import (
	"sync"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// CheckpointSource wraps a graph source, counting published elements (the
// replay offset) and injecting requested barriers between two frames —
// the injection point of every checkpoint round. The inner source's
// frames pass through it synchronously, whoever drives the inner source:
// a scheduler worker, Drive, or a push source's own thread.
type CheckpointSource struct {
	pubsub.SourceBase
	emit pubsub.BatchEmitter // the inner source, when it is an emitter

	// pub serialises what the wrapper publishes — frames, barriers and
	// done — so a barrier requested from another thread lands between two
	// frames.
	pub sync.Mutex

	// mu is the leaf lock over the offset and the callback: Offset never
	// waits for a publish in flight.
	mu     sync.Mutex
	offset int
	onReq  func(b pubsub.Barrier, sourceName string, offset int)
}

// NewCheckpointSource wraps inner. The wrapper takes over inner's
// subscribers: subscribe sinks to the wrapper, not to inner.
func NewCheckpointSource(inner pubsub.Source) *CheckpointSource {
	cs := &CheckpointSource{SourceBase: pubsub.NewSourceBase(inner.Name())}
	if e, ok := inner.(pubsub.Emitter); ok {
		cs.emit = pubsub.FrameEmitter(e)
	}
	if err := inner.Subscribe((*csTap)(cs), 0); err != nil {
		panic("ft: cannot subscribe checkpoint tap: " + err.Error())
	}
	return cs
}

// csTap is the private sink identity receiving the inner source's
// elements, kept distinct so user code cannot accidentally unsubscribe
// the counting tap.
type csTap CheckpointSource

func (t *csTap) Name() string { return (*CheckpointSource)(t).Name() + "/ft-tap" }

// ProcessBatch implements pubsub.BatchSink: frames pass through whole,
// advancing the replay offset by the frame length.
func (t *csTap) ProcessBatch(b temporal.Batch, _ int) {
	cs := (*CheckpointSource)(t)
	cs.pub.Lock()
	cs.mu.Lock()
	cs.offset += len(b)
	cs.mu.Unlock()
	cs.TransferBatch(b)
	cs.pub.Unlock()
}

func (t *csTap) Done(_ int) {
	cs := (*CheckpointSource)(t)
	cs.pub.Lock()
	cs.SignalDone()
	cs.pub.Unlock()
}

// EmitNext implements pubsub.Emitter.
func (cs *CheckpointSource) EmitNext() bool { _, more := cs.EmitBatch(1); return more }

// EmitBatch implements pubsub.BatchEmitter by driving the inner source,
// which must be an emitter; its frame comes back through the tap.
func (cs *CheckpointSource) EmitBatch(max int) (int, bool) { return cs.emit.EmitBatch(max) }

// RequestBarrier injects b at once, between two frames, and reports
// whether the stream was still live at the injection. Done is published
// under the same lock, so a live stream gets b ahead of its done; after
// done, b passes through at the final offset. The offset callback
// installed via setOnRequest fires with the element count before the
// barrier — the replay offset of this source for round b. It must not be
// called from inside the wrapper's own publish.
func (cs *CheckpointSource) RequestBarrier(b pubsub.Barrier) (live bool) {
	cs.pub.Lock()
	live = !cs.IsDone()
	cs.mu.Lock()
	onReq, off := cs.onReq, cs.offset
	cs.mu.Unlock()
	cs.TransferControl(b)
	cs.pub.Unlock()
	if onReq != nil {
		onReq(b, cs.Name(), off)
	}
	return live
}

// setOnRequest installs the Manager's offset callback.
func (cs *CheckpointSource) setOnRequest(fn func(b pubsub.Barrier, sourceName string, offset int)) {
	cs.mu.Lock()
	cs.onReq = fn
	cs.mu.Unlock()
}

// resumeAt sets the offset count to where a recovered run's replay of
// this source starts.
func (cs *CheckpointSource) resumeAt(offset int) {
	cs.mu.Lock()
	cs.offset = offset
	cs.mu.Unlock()
}

// Ended reports whether the inner stream has completed (done reached the
// counting tap). Like Offset it never waits for a publish in flight.
func (cs *CheckpointSource) Ended() bool { return cs.IsDone() }

// Offset returns the stream position reached: the elements published so
// far, plus the replay start a recovery set (Manager.Restore).
func (cs *CheckpointSource) Offset() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.offset
}

// CheckpointSink is a collecting sink that participates in checkpoint
// rounds: it records every received element and, per barrier, the cut
// index — how many elements preceded the barrier. After recovery, the
// pre-crash output truncated at Cut(id) concatenated with the recovered
// run's output is the stream an uninterrupted run would have produced
// (up to snapshot equivalence).
type CheckpointSink struct {
	name string

	mu    sync.Mutex
	elems []temporal.Element
	cuts  map[uint64]int
	ack   func(pubsub.Barrier)
	done  bool
}

// NewCheckpointSink returns an empty sink.
func NewCheckpointSink(name string) *CheckpointSink {
	return &CheckpointSink{name: name, cuts: map[uint64]int{}}
}

// Name implements pubsub.Node.
func (s *CheckpointSink) Name() string { return s.name }

// ProcessBatch implements pubsub.BatchSink: the append copies the elements
// out of the borrowed frame.
func (s *CheckpointSink) ProcessBatch(b temporal.Batch, _ int) {
	s.mu.Lock()
	s.elems = append(s.elems, b...)
	s.mu.Unlock()
}

// KeepsValues implements pubsub.ValueKeeper: the sink records what it
// is handed, so a lending publisher gives it owned copies.
func (s *CheckpointSink) KeepsValues() {}

// Done implements pubsub.Sink.
func (s *CheckpointSink) Done(_ int) {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// HandleControl implements pubsub.ControlSink: barriers record their cut
// and ack to the coordinator.
func (s *CheckpointSink) HandleControl(c pubsub.Control, _ int) {
	b, ok := c.(pubsub.Barrier)
	if !ok {
		return
	}
	s.mu.Lock()
	if _, dup := s.cuts[b.ID]; dup {
		s.mu.Unlock()
		return
	}
	s.cuts[b.ID] = len(s.elems)
	ack := s.ack
	s.mu.Unlock()
	if ack != nil {
		ack(b)
	}
}

// Cut returns the number of elements received before barrier id, and
// whether that barrier reached this sink.
func (s *CheckpointSink) Cut(id uint64) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.cuts[id]
	return n, ok
}

// Elements returns a snapshot of everything received so far.
func (s *CheckpointSink) Elements() []temporal.Element {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]temporal.Element, len(s.elems))
	copy(out, s.elems)
	return out
}

// IsDone reports whether end-of-stream reached the sink.
func (s *CheckpointSink) IsDone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// setAck installs the Manager's ack callback.
func (s *CheckpointSink) setAck(fn func(pubsub.Barrier)) {
	s.mu.Lock()
	s.ack = fn
	s.mu.Unlock()
}
