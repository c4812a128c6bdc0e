// Package pubsub implements the inherent publish-subscribe architecture of
// PIPES: directed acyclic query graphs whose nodes are sources, sinks and
// pipes (operators). Subscriptions connect a source directly to the
// ProcessBatch method of each subscribed sink — no inter-operator queue is
// involved — which is the paper's central overhead reduction. Explicit
// Buffer nodes reintroduce queues only where the scheduler places
// virtual-node boundaries.
//
// The unit of transfer is the frame (temporal.Batch): every node in the
// engine implements the frame method once. The paper's per-element calls
// survive as thin adapters at the graph edge — Transfer(e) publishes a
// one-element frame, EmitNext is EmitBatch(1), and a user sink that only
// has Process(e) is wrapped once at Subscribe (SEMANTICS.md §3.7).
//
// Node taxonomy (paper, section "Query Plans"):
//
//  1. A Source transfers its elements to a set of subscribed sinks.
//  2. A Sink subscribes to multiple sources and consumes their elements.
//  3. A Pipe combines both: it consumes, processes and re-publishes.
package pubsub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// Node is anything addressable in a query graph.
type Node interface {
	// Name returns a short human-readable identifier used by EXPLAIN
	// output, the monitor and the optimizer.
	Name() string
}

// Sink consumes stream elements from one or more subscribed sources. The
// input index distinguishes the sources of a multi-input operator (e.g. a
// join's left/right inputs). A sink takes its elements through exactly one
// of two methods: ProcessBatch (BatchSink — every node of the engine) or
// the paper's per-element Process (ElementSink — user sinks at the graph
// edge, wrapped once at Subscribe). Subscribe rejects a sink with neither.
type Sink interface {
	Node
	// Done signals that no further elements will arrive on the given
	// input. Multi-input sinks act (flush, propagate) once all inputs are
	// done.
	Done(input int)
}

// BatchSink is a sink consuming one frame per call. ProcessBatch is
// invoked synchronously by the publishing source; implementations must
// serialise internally if they can be subscribed to concurrently
// publishing sources. The frame is borrowed for the duration of the call
// (see temporal.Batch): the sink may forward it downstream synchronously,
// but must copy out any element it keeps and must not retain or mutate
// the slice after returning. A terminal BatchSink borrows the values as
// well, unless it declares ValueKeeper.
type BatchSink interface {
	Sink
	ProcessBatch(b temporal.Batch, input int)
}

// ElementSink is the paper's per-element sink interface, kept for user
// sinks outside the engine.
type ElementSink interface {
	Sink
	Process(e temporal.Element, input int)
}

// ValueKeeper is implemented by terminal BatchSinks that keep element
// values past ProcessBatch: they store what they are handed (Collector)
// or hand it to code that may (FuncSink). A terminal BatchSink that does
// not declare it borrows: a lending publisher (SourceBase.Lend) hands it
// the frame as is, values included, and takes the values back once the
// frame is delivered, so it must consume every value in the call
// (render, encode, count) and keep nothing reachable from one. Keepers,
// and every sink that cannot borrow (Subscribe), get owned copies
// instead. Borrowing is a promise about the whole call tree ProcessBatch
// runs (pipesvet's frameborrow checks the sink's own body; SEMANTICS.md
// §3.7).
type ValueKeeper interface {
	KeepsValues()
}

// elementEdge is the edge adapter delivering frames to an ElementSink
// one element at a time.
type elementEdge struct{ ElementSink }

func (a elementEdge) ProcessBatch(b temporal.Batch, input int) {
	for _, e := range b {
		a.Process(e, input)
	}
}

// Frames returns sink's frame-consuming identity: the sink itself when it
// is a BatchSink, the edge adapter around an ElementSink otherwise.
func Frames(sink Sink) (BatchSink, error) {
	switch s := sink.(type) {
	case nil:
		return nil, errors.New("pubsub: nil sink")
	case BatchSink:
		return s, nil
	case ElementSink:
		return elementEdge{s}, nil
	}
	return nil, fmt.Errorf("pubsub: sink %s has neither ProcessBatch nor Process", sink.Name())
}

// Source publishes stream elements to its subscribed sinks.
type Source interface {
	Node
	// Subscribe registers sink to receive future elements on the sink's
	// given input index.
	Subscribe(sink Sink, input int) error
	// Unsubscribe removes a previously registered subscription.
	Unsubscribe(sink Sink, input int) error
	// Subscriptions returns a snapshot of the current subscriptions, which
	// the caller must not modify.
	Subscriptions() []Subscription
}

// Pipe is an operator: simultaneously a sink and a source.
type Pipe interface {
	Source
	Sink
}

// Subscription is one (sink, input) registration at a source.
type Subscription struct {
	Sink  Sink
	Input int

	// frames is the sink's frame-consuming identity (Frames), resolved at
	// Subscribe time so TransferBatch pays no per-frame type assertion.
	frames flight.FrameSink

	// block is where the sink keeps its instrumentation block, cached
	// likewise. Nil for sinks that are not SourceBase nodes (terminal
	// sinks): nothing records their input side.
	block *atomic.Pointer[flight.OpRef]

	// borrows caches whether the sink is handed a lending publisher's
	// values as they are: it is a terminal BatchSink that does not declare
	// KeepsValues (Subscribe).
	borrows bool
}

// ref returns the sink's block, nil when detached (one pointer load).
func (sub *Subscription) ref() *flight.OpRef {
	if sub.block == nil {
		return nil
	}
	return sub.block.Load()
}

// ErrDone is returned by Subscribe when the source has already signalled
// end-of-stream; new subscribers would never receive anything.
var ErrDone = errors.New("pubsub: source already signalled done")

// ErrNotSubscribed is returned by Unsubscribe when the (sink, input) pair
// is not registered.
var ErrNotSubscribed = errors.New("pubsub: not subscribed")

// SourceBase provides the reusable publishing half of a node: a
// thread-safe subscriber list plus TransferBatch/SignalDone. Embed it in
// sources and (via PipeBase) in operators.
//
// The subscriber list is copy-on-write: Subscribe/Unsubscribe build a new
// immutable slice under the write mutex, while TransferBatch and
// SignalDone read the current snapshot through an atomic pointer.
// Publishing is therefore lock-free and never races with subscription
// changes — the property that lets multiple scheduler workers drive
// disjoint parts of one query graph concurrently (see CONCURRENCY.md).
type SourceBase struct {
	name string

	mu   sync.Mutex                     // serialises subscription writes
	subs atomic.Pointer[[]Subscription] // immutable snapshot read by TransferBatch
	done atomic.Bool
	hook atomic.Pointer[TransferHook] // optional telemetry tap on TransferBatch

	// fref is the node's instrumentation block (nil = detached; the
	// hot-path cost is then one atomic pointer load per side).
	fref atomic.Pointer[flight.OpRef]

	// Publisher-owned scratch, guarded by the serialisation rule that one
	// goroutine publishes at a time: one is the frame Transfer publishes
	// its element in, hookScratch the frame TransferBatch annotates into
	// when a hook is installed (published frames may be views the hook
	// must not write through).
	one         [1]temporal.Element
	hookScratch temporal.Batch

	// lend and reclaim, when set (Lend), make the publisher a lender: a
	// frame delivered from a snapshot that holds a borrower gives the
	// other subscribers copies, made by lend into ownScratch once per
	// frame and shared among them, and hands every published value back
	// to reclaim once the frame is delivered.
	lend       func(v any) any
	reclaim    func(v any)
	ownScratch temporal.Batch
}

// TransferHook observes — and may annotate — every element a source
// publishes, immediately before the hand-off to the subscribers. The
// telemetry layer uses it to attach sampled trace contexts in the dispatch
// path; the hook must be fast and must not block.
type TransferHook func(e temporal.Element) temporal.Element

// NewSourceBase returns a SourceBase with the given display name.
func NewSourceBase(name string) SourceBase { return SourceBase{name: name} }

// Name implements Node.
func (s *SourceBase) Name() string { return s.name }

// loadSubs returns the current immutable subscription snapshot.
func (s *SourceBase) loadSubs() []Subscription {
	if p := s.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// Subscribe implements Source.
func (s *SourceBase) Subscribe(sink Sink, input int) error {
	frames, err := Frames(sink)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done.Load() {
		return ErrDone
	}
	cur := s.loadSubs()
	for _, sub := range cur {
		if sub.Sink == sink && sub.Input == input {
			return fmt.Errorf("pubsub: %s already subscribed to %s input %d", sink.Name(), s.name, input)
		}
	}
	next := make([]Subscription, len(cur)+1)
	copy(next, cur)
	sub := Subscription{Sink: sink, Input: input, frames: frames, borrows: borrows(sink)}
	if n, ok := sink.(interface {
		flightBlock() *atomic.Pointer[flight.OpRef]
	}); ok {
		sub.block = n.flightBlock()
	}
	next[len(cur)] = sub
	s.subs.Store(&next)
	return nil
}

// borrows reports whether sink borrows lent values (SEMANTICS.md §3.7).
// Only a terminal BatchSink can: an ElementSink's Process may keep what
// it is handed one element at a time, and a Source forwards or queues
// its values. Of the rest, every sink that does not declare KeepsValues
// borrows.
func borrows(sink Sink) bool {
	_, batch := sink.(BatchSink)
	_, source := sink.(Source)
	_, keeper := sink.(ValueKeeper)
	return batch && !source && !keeper
}

// Unsubscribe implements Source.
func (s *SourceBase) Unsubscribe(sink Sink, input int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.loadSubs()
	for i, sub := range cur {
		if sub.Sink == sink && sub.Input == input {
			next := make([]Subscription, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			s.subs.Store(&next)
			return nil
		}
	}
	return ErrNotSubscribed
}

// Subscriptions implements Source. The slice is the current immutable
// snapshot itself (Subscribe and Unsubscribe replace it, never write it),
// so reading it allocates nothing; callers must not modify it.
func (s *SourceBase) Subscriptions() []Subscription { return s.loadSubs() }

// TransferBatch publishes a frame synchronously to every subscribed sink.
// This direct hand-off — a plain method call into the consumer — is what
// replaces inter-operator queues. TransferBatch is lock-free; callers must
// serialise their own TransferBatch/TransferControl/SignalDone sequence
// (operators do so via ProcMu, the scheduler via single-owner task
// activation). The publish hook runs once per element, so 1-in-N trace
// sampling counts elements whatever the frame size. The frame is only
// borrowed by the subscribers (temporal.Batch): when the call returns,
// ownership is back with the caller, which may reuse the backing array
// for its next frame. After Lend the values are lent only when the
// snapshot delivered from holds a borrower (a terminal BatchSink that
// does not declare KeepsValues); they then come back through reclaim
// before TransferBatch returns, and otherwise belong to the subscribers.
func (s *SourceBase) TransferBatch(b temporal.Batch) {
	if len(b) == 0 {
		return
	}
	if ref := s.fref.Load(); ref != nil {
		ref.Out(b)
	}
	if h := s.hook.Load(); h != nil {
		// Hooks annotate elements (trace attachment), so they must not
		// write through b: sources may publish views of slices they do not
		// own exclusively (SliceSource publishes its backing array).
		hb := s.hookScratch[:0]
		for _, e := range b {
			hb = append(hb, (*h)(e))
		}
		s.hookScratch = hb
		b = hb
	}
	subs := s.loadSubs()
	// Decided from the snapshot being delivered: a sink that subscribed
	// after the load is not in it, one that is in it gets what its own
	// entry says.
	lending := s.lend != nil && borrowed(subs)
	var owned temporal.Batch // b with owned values, built for the first owner
	for i := range subs {
		sub := &subs[i]
		fb := b
		if lending && !sub.borrows {
			if owned == nil {
				owned = s.own(b)
			}
			fb = owned
		}
		// Through the sink's instrumentation block when it has one, which
		// records the operator's input side (OBSERVABILITY.md) without a
		// node of its own in the graph; detached, a pointer load.
		if ref := sub.ref(); ref != nil {
			ref.Deliver(sub.frames, fb, sub.Input)
		} else {
			sub.frames.ProcessBatch(fb, sub.Input)
		}
	}
	if lending {
		for _, e := range b {
			s.reclaim(e.Value)
		}
	}
}

// borrowed reports whether a snapshot holds a borrower.
func borrowed(subs []Subscription) bool {
	for i := range subs {
		if subs[i].borrows {
			return true
		}
	}
	return false
}

// own copies b into the publisher's scratch with every value passed
// through lend: the frame the owning subscribers share.
func (s *SourceBase) own(b temporal.Batch) temporal.Batch {
	ob := s.ownScratch[:0]
	for _, e := range b {
		e.Value = s.lend(e.Value)
		ob = append(ob, e)
	}
	s.ownScratch = ob
	return ob
}

// Lend declares that the values this publisher publishes are its own,
// lent to the subscribers that borrow (SEMANTICS.md §3.7). A frame
// published while the subscription snapshot holds a borrower (a terminal
// BatchSink that does not declare KeepsValues) is lent:
// borrowers receive it as is; every other subscriber receives one copy
// whose values went through clone, shared among them; and once every
// subscriber has returned, each published value is handed to reclaim,
// under the publisher's serialisation, for the publisher to reuse. A
// frame published while no subscriber borrows is not lent:
// every subscriber receives the publisher's values, which are theirs to
// keep, nothing is cloned and nothing comes back. Call Lend once, before
// the node is wired into a graph; publishers that never lend pay one nil
// check per frame.
func (s *SourceBase) Lend(clone func(v any) any, reclaim func(v any)) {
	s.lend, s.reclaim = clone, reclaim
}

// Transfer publishes e as a one-element frame: the paper's per-element
// call, kept as the edge adapter for sources that produce one element at a
// time. The frame lives in publisher-owned scratch, so it allocates
// nothing.
func (s *SourceBase) Transfer(e temporal.Element) {
	s.one[0] = e
	s.TransferBatch(s.one[:])
}

// SetTransferHook installs (or, with nil, removes) the publish tap. The
// cost when unset is one atomic pointer load per frame.
func (s *SourceBase) SetTransferHook(h TransferHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

// SetFlightRef attaches (or with nil detaches) the node's instrumentation
// block. Attached, TransferBatch records the node's output side through it
// and every upstream TransferBatch its input side; buffers record depth
// waterlines. See flight.OpRef for what is exact and what is strided.
func (s *SourceBase) SetFlightRef(ref *flight.OpRef) { s.fref.Store(ref) }

// FlightRef returns the attached block (nil when detached).
func (s *SourceBase) FlightRef() *flight.OpRef { return s.fref.Load() }

// flightBlock is how Subscribe finds a sink's block slot.
func (s *SourceBase) flightBlock() *atomic.Pointer[flight.OpRef] { return &s.fref }

// SignalDone propagates end-of-stream to all subscribers exactly once.
func (s *SourceBase) SignalDone() {
	if !s.done.CompareAndSwap(false, true) {
		return
	}
	for _, sub := range s.loadSubs() {
		sub.Sink.Done(sub.Input)
	}
}

// IsDone reports whether SignalDone has been called.
func (s *SourceBase) IsDone() bool { return s.done.Load() }

// PipeBase provides the reusable consuming half of an operator on top of
// SourceBase: a processing mutex serialising ProcessBatch/Done across
// concurrently publishing upstream sources, the operator's output frame,
// open-input bookkeeping and a flush hook invoked once when every input
// has signalled done.
//
// Concrete operators embed PipeBase, implement ProcessBatch themselves
// (taking ProcMu, Emit-ing results and Flush-ing them as one downstream
// frame) and may set OnAllDone to emit buffered state before done
// propagates.
type PipeBase struct {
	SourceBase

	// ProcMu serialises frame processing. Operators lock it in
	// ProcessBatch.
	ProcMu sync.Mutex

	// out is the pending output frame (under ProcMu): Emit appends, Flush
	// publishes. The backing array is reused across frames — legal under
	// the temporal.Batch borrow contract, the downstream borrow ends when
	// TransferBatch returns.
	out temporal.Batch

	// OnAllDone, if non-nil, runs under ProcMu once after the last input
	// signals done and before done is propagated downstream. Operators use
	// it to Emit buffered results (the algebra stays non-blocking: results
	// are emitted as early as timestamps permit, this hook only drains the
	// tail); Done flushes what the hooks emitted.
	OnAllDone func()

	// OnInputDone, if non-nil, runs under ProcMu when an individual input
	// first signals done (before OnAllDone for the last input).
	// The ordered core of internal/ops uses it to apply the arrivals the
	// input's silence held back.
	OnInputDone func(input int)

	// OnHold and OnRelease run under ProcMu and hold an input during
	// barrier alignment (control.go): OnHold when a barrier arrives on
	// the open input before the round has aligned, after which the
	// operator must apply nothing more the input delivers; OnRelease
	// once the aligned round's barrier has been forwarded, when the
	// operator applies what the held inputs delivered and returns how
	// many arrivals that was. An operator with more than one input must
	// set both (the ordered core of internal/ops does); one input never
	// holds, so a single-input operator sets neither.
	OnHold    func(input int)
	OnRelease func() int

	inputs int
	open   int

	// closed is the one record of which inputs have signalled done, one
	// bit per input, under ProcMu.
	closed uint64

	// Barrier-alignment state (control.go), under ProcMu; the hooks are
	// the checkpoint coordinator's taps.
	barrier       barrierState
	onBarrierSave func(Barrier)
	onBarrierAck  func(Barrier)
}

// NewPipeBase returns a PipeBase for an operator with the given number of
// inputs (its arity).
func NewPipeBase(name string, inputs int) PipeBase {
	if inputs <= 0 {
		panic("pubsub: operator arity must be positive")
	}
	if inputs > 64 {
		panic("pubsub: operator arity exceeds 64 (the done and barrier bitmask width)")
	}
	return PipeBase{
		SourceBase: NewSourceBase(name),
		inputs:     inputs,
		open:       inputs,
	}
}

// Inputs returns the operator arity.
func (p *PipeBase) Inputs() int { return p.inputs }

// FrameCap bounds the frames the engine forms itself — the scheduler's
// default batch size. An operator with unbounded fan-out (a join) publishes
// its results in frames of this size instead of materialising them all,
// and a Buffer coalesces small frames into chunks of it, so frame storage
// stays bounded along the graph whatever a source publishes.
const FrameCap = 64

// Emit appends one result to the pending output frame, publishing it when
// full. Callers hold ProcMu.
func (p *PipeBase) Emit(e temporal.Element) {
	p.out = append(p.out, e)
	if len(p.out) >= FrameCap {
		p.Flush()
	}
}

// Pending returns the length of the pending output frame: the slot the
// next Emit fills. Callers hold ProcMu.
func (p *PipeBase) Pending() int { return len(p.out) }

// Flush publishes the pending output as one downstream frame. Callers
// hold ProcMu.
func (p *PipeBase) Flush() {
	if len(p.out) > 0 {
		p.TransferBatch(p.out)
		p.out = p.out[:0]
	}
}

// Done implements Sink. It tolerates duplicate done signals per input and
// out-of-range inputs are ignored (defensive: a miswired graph should not
// crash the runtime). The done of an input a barrier holds waits for the
// release; an input that closes while a round is pending counts as
// aligned, so a source finishing between two checkpoints cannot stall
// the round.
func (p *PipeBase) Done(input int) {
	p.ProcMu.Lock()
	if input < 0 || input >= p.inputs || p.InputDone(input) {
		p.ProcMu.Unlock()
		return
	}
	if p.barrier.held&(1<<uint(input)) != 0 {
		p.barrier.doneHeld |= 1 << uint(input)
		p.ProcMu.Unlock()
		return
	}
	last := p.close(input)
	p.Flush()
	round := Barrier{ID: p.barrier.round}
	aligned := round.ID != 0 && p.aligned()
	if aligned {
		p.save(round)
	}
	p.ProcMu.Unlock()
	if aligned {
		p.finish(round)
	}
	if last {
		p.SignalDone()
	}
}

// close records that input signalled done and runs the done hooks; it
// reports whether input was the last one open. Callers hold ProcMu and
// flush.
func (p *PipeBase) close(input int) bool {
	p.closed |= 1 << uint(input)
	p.open--
	if p.OnInputDone != nil {
		p.OnInputDone(input)
	}
	if p.open == 0 && p.OnAllDone != nil {
		p.OnAllDone()
	}
	return p.open == 0
}

// InputDone reports whether the given input has signalled done. Callers
// hold ProcMu.
func (p *PipeBase) InputDone(input int) bool {
	return input >= 0 && input < p.inputs && p.closed&(1<<uint(input)) != 0
}

// Connect subscribes each pipe in the chain to its predecessor and returns
// the last node, enabling fluent graph construction:
//
//	pubsub.Connect(src, filter, window, agg)
//	agg.Subscribe(sink, 0)
func Connect(src Source, pipeChain ...Pipe) Source {
	cur := src
	for _, p := range pipeChain {
		if err := cur.Subscribe(p, 0); err != nil {
			panic(fmt.Sprintf("pubsub: Connect: %v", err))
		}
		cur = p
	}
	return cur
}
