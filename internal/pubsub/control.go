// Control-element channel: in-band punctuations that flow through the
// query graph in stream order, alongside (never overtaking, never
// overtaken by) data elements. The fault-tolerance subsystem
// (internal/ft, FAULT_TOLERANCE.md) uses it to carry checkpoint barriers;
// the design follows punctuation-based inter-operator feedback
// (Fernández-Moctezuma et al.): a control element injected at a source
// between two data elements reaches every downstream node at exactly that
// position of the stream.
//
// Delivery rules:
//
//   - Direct connections: TransferControl hands the control synchronously
//     to every subscriber implementing ControlSink; plain sinks
//     (collectors, archives) do not see controls.
//   - Buffers: controls are enqueued in FIFO position with the data and
//     re-published when drained, so they keep their stream position
//     across scheduler boundaries.
//   - Multi-input operators: barriers align. The first barrier of a round
//     blocks its input — subsequently published frames on that input
//     are held inside the operator's Gate, not processed — until
//     the same barrier has arrived on every other open input. On
//     alignment the operator snapshots (OnBarrier hook, under ProcMu),
//     forwards the barrier downstream, replays the held elements and
//     finally acks. Inputs that have signalled done count as aligned.
//
// Everything here is strictly pay-for-what-you-use: a graph that never
// sees a control element pays one nil pointer check per frame on
// multi-input edges and nothing anywhere else.
package pubsub

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// Control is an in-band control element (punctuation). Controls travel
// through the graph in stream order but carry no snapshot content: they
// are invisible to the operator algebra and to plain sinks.
type Control interface {
	// ControlString renders the control for logs and EXPLAIN output.
	ControlString() string
}

// Barrier is the checkpoint punctuation of the fault-tolerance subsystem:
// all state changes caused by elements published before the barrier
// belong to checkpoint ID, all later ones do not.
type Barrier struct {
	ID uint64
}

// ControlString implements Control.
func (b Barrier) ControlString() string { return fmt.Sprintf("barrier#%d", b.ID) }

// ControlSink is implemented by sinks that participate in control flow.
// Sinks that do not implement it simply never see controls.
type ControlSink interface {
	// HandleControl consumes one control element arriving on the given
	// input. Like ProcessBatch it is invoked synchronously by the
	// publishing source and must be serialised by the caller per input
	// edge.
	HandleControl(c Control, input int)
}

// Gated is implemented by sinks whose inputs can be blocked during
// barrier alignment. Subscribe caches the gate in the subscription so
// TransferBatch can consult it without a per-frame type assertion.
type Gated interface {
	// BarrierGate returns the alignment gate, or nil when the sink never
	// blocks (single-input operators).
	BarrierGate() *Gate
}

// TransferControl publishes a control element synchronously to every
// subscribed ControlSink, in subscriber order. Callers must serialise
// TransferControl with their own TransferBatch/SignalDone sequence — the
// control takes the stream position of the call.
func (s *SourceBase) TransferControl(c Control) {
	for _, sub := range s.loadSubs() {
		if cs, ok := sub.Sink.(ControlSink); ok {
			cs.HandleControl(c, sub.Input)
		}
	}
}

// heldFrame is one frame parked during barrier alignment: a gate-owned
// copy, since the published frame is only borrowed. A nil b is the input's
// parked end-of-stream: done must not overtake the frames held before it.
type heldFrame struct {
	b   temporal.Batch
	sub Subscription
}

// Gate blocks individual inputs of a multi-input operator during barrier
// alignment. The unblocked fast path is a single atomic load; the blocked
// path locks and parks the frame in arrival order.
type Gate struct {
	blocked atomic.Uint64 // bitmask of currently blocked inputs

	mu   sync.Mutex
	held []heldFrame
}

// park intercepts one frame published on sub, or with a nil b the input's
// done signal. It returns true when it was parked (the caller must not
// deliver it) and false when the input is open and the caller should
// deliver normally. A false result is stable for the caller: an input is
// only ever blocked from its own (serialised) control stream, so it cannot
// flip to blocked concurrently with a data transfer on the same edge.
func (g *Gate) park(b temporal.Batch, sub Subscription) bool {
	if g.blocked.Load()&(1<<uint(sub.Input)) == 0 {
		return false
	}
	g.mu.Lock()
	// Re-check under the lock: an unblock may have completed in between,
	// and once it has, parking would reorder this frame behind none.
	if g.blocked.Load()&(1<<uint(sub.Input)) == 0 {
		g.mu.Unlock()
		return false
	}
	g.held = append(g.held, heldFrame{b: slices.Clone(b), sub: sub})
	g.mu.Unlock()
	return true
}

// block marks input as blocked: subsequently published elements on it are
// parked until release.
func (g *Gate) block(input int) {
	g.mu.Lock()
	g.blocked.Store(g.blocked.Load() | 1<<uint(input))
	g.mu.Unlock()
}

// release unblocks every input and replays the parked frames, in arrival
// order, into the operator — delivered like any published frame, so the
// operator's input side counts them when they are processed, not when they
// were held — returning how many elements were replayed.
// Publishers racing with the replay keep parking (the mask stays set
// until the backlog is empty), so per-edge order is preserved; the mask
// is cleared under the lock only when no parked frame remains.
func (g *Gate) release() int {
	replayed := 0
	for {
		g.mu.Lock()
		if len(g.held) == 0 {
			g.blocked.Store(0)
			g.mu.Unlock()
			return replayed
		}
		held := g.held
		g.held = nil
		g.mu.Unlock()
		for _, h := range held {
			if h.b == nil {
				h.sub.Sink.Done(h.sub.Input)
				continue
			}
			h.sub.deliver(h.b)
			replayed += len(h.b)
		}
	}
}

// Held returns the number of currently parked elements (for tests and
// memory accounting).
func (g *Gate) Held() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, h := range g.held {
		n += len(h.b)
	}
	return n
}

// barrierState is the per-operator alignment bookkeeping embedded in
// PipeBase. All fields are guarded by its own mutex — never by ProcMu —
// so control handling can run concurrently with data processing on other
// inputs.
type barrierState struct {
	mu       sync.Mutex
	cur      *Barrier // barrier currently aligning, nil when idle
	seen     uint64   // inputs the current barrier arrived on
	lastDone uint64   // highest barrier ID already handled (dedupe)
	// holdStart stamps the first input block of the current round (flight
	// clock, ns) so the alignment hold duration can be recorded on
	// release. Zero when no input blocked or flight recording is
	// detached.
	holdStart int64
}

// SetBarrierHooks installs the checkpoint callbacks: save runs under
// ProcMu once the barrier has aligned, before it is forwarded downstream
// (the operator is quiescent — serialise state here, do no I/O); ack runs
// after the barrier has been forwarded and blocked inputs replayed (the
// coordinator hand-off — see internal/ft). Either may be nil. Install
// hooks before the graph starts; they are not synchronised against a
// running graph.
func (p *PipeBase) SetBarrierHooks(save, ack func(Barrier)) {
	p.onBarrierSave = save
	p.onBarrierAck = ack
}

// BarrierGate implements Gated: only multi-input operators ever block.
func (p *PipeBase) BarrierGate() *Gate {
	if p.inputs <= 1 {
		return nil
	}
	return &p.gate
}

// HandleControl implements ControlSink for every operator embedding
// PipeBase: barriers align across inputs (see the package comment);
// non-barrier controls are forwarded downstream unchanged on first
// receipt per input, without alignment.
func (p *PipeBase) HandleControl(c Control, input int) {
	b, isBarrier := c.(Barrier)
	if !isBarrier {
		p.TransferControl(c)
		return
	}
	p.barrier.mu.Lock()
	if b.ID <= p.barrier.lastDone {
		// Duplicate (a closed input delivering late) — already handled.
		p.barrier.mu.Unlock()
		return
	}
	if p.barrier.cur == nil || p.barrier.cur.ID != b.ID {
		// A new round. With one outstanding checkpoint at a time (the
		// coordinator's contract) an older pending round can only mean
		// its remaining inputs died; adopt the newer barrier.
		p.barrier.cur = &b
		p.barrier.seen = 0
	}
	p.barrier.seen |= 1 << uint(input)
	covered := p.barrier.seen | p.closedMask.Load()
	all := uint64(1)<<uint(p.inputs) - 1
	if covered&all != all {
		// Not aligned yet: block this input until the others catch up.
		p.gate.block(input)
		if p.barrier.holdStart == 0 {
			if ref := p.fref.Load(); ref != nil {
				p.barrier.holdStart = ref.NowNS()
			}
		}
		p.barrier.mu.Unlock()
		return
	}
	p.barrier.cur = nil
	p.barrier.lastDone = b.ID
	holdStart := p.barrier.holdStart
	p.barrier.holdStart = 0
	p.barrier.mu.Unlock()
	p.completeBarrier(b, holdStart)
}

// completeBarrier runs the aligned path. The caller must have retired the
// round under barrier.mu first (cur=nil, lastDone=ID), capturing the
// round's holdStart stamp (0 when no input ever blocked).
func (p *PipeBase) completeBarrier(b Barrier, holdStart int64) {
	// 1: snapshot while quiescent. Blocked inputs are parked in the gate
	// and the aligning input's publisher is inside this call chain, so no
	// frame can enter ProcessBatch between the snapshot and the forward.
	if p.onBarrierSave != nil {
		p.ProcMu.Lock()
		p.onBarrierSave(b)
		p.ProcMu.Unlock()
	}
	// 2: forward downstream before anything post-barrier is processed.
	p.TransferControl(b)
	// 3: replay parked elements — their results are post-barrier.
	replayed := 0
	if p.inputs > 1 {
		replayed = p.gate.release()
	}
	if ref := p.fref.Load(); ref != nil {
		if holdStart != 0 {
			ref.Phase(flight.KindAlignHold, int64(b.ID), ref.NowNS()-holdStart, int64(replayed))
		}
		if replayed > 0 {
			ref.Phase(flight.KindGateReplay, int64(b.ID), int64(replayed), 0)
		}
	}
	// 4: hand the round back to the coordinator. Runs after the forward
	// so that when every operator has acked, every direct subscriber
	// (sinks included) has seen the barrier.
	if p.onBarrierAck != nil {
		p.onBarrierAck(b)
	}
}

// barrierInputClosed re-checks a pending alignment after an input
// signalled done: inputs that will never deliver the barrier count as
// aligned, otherwise a source finishing between two checkpoints would
// stall the round forever. Called by Done outside ProcMu.
func (p *PipeBase) barrierInputClosed() {
	p.barrier.mu.Lock()
	if p.barrier.cur == nil {
		p.barrier.mu.Unlock()
		return
	}
	covered := p.barrier.seen | p.closedMask.Load()
	all := uint64(1)<<uint(p.inputs) - 1
	if covered&all != all {
		p.barrier.mu.Unlock()
		return
	}
	b := *p.barrier.cur
	p.barrier.cur = nil
	p.barrier.lastDone = b.ID
	holdStart := p.barrier.holdStart
	p.barrier.holdStart = 0
	p.barrier.mu.Unlock()
	p.completeBarrier(b, holdStart)
}
