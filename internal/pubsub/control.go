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
//   - Multi-input operators: barriers align (FAULT_TOLERANCE.md, barrier
//     protocol steps 3–4). The first barrier of a round holds its input
//     until the same barrier has arrived on every other open input: the
//     operator keeps what the input delivers meanwhile queued, unapplied
//     (OnHold), and its done waits. On alignment the operator snapshots
//     (the save hook, under ProcMu), forwards the barrier downstream,
//     releases the held inputs (OnRelease, then their done) and finally
//     acks. Inputs that have signalled done count as aligned.
//
// Everything here is pay-for-what-you-use: publishing a frame does
// nothing for the control channel.
package pubsub

import (
	"fmt"

	"pipes/internal/telemetry/flight"
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

// barrierState is an operator's alignment bookkeeping, embedded in
// PipeBase and guarded by ProcMu, like the state it cuts.
type barrierState struct {
	round    uint64 // ID of the barrier aligning, 0 when none
	seen     uint64 // inputs the round's barrier arrived on
	held     uint64 // open inputs held until the round's release
	doneHeld uint64 // held inputs whose done waits for the release
	lastDone uint64 // highest barrier ID handled (dedupe)
	// holdStart stamps the first hold of the round (flight clock, ns) so
	// the hold's duration can be recorded on release. Zero when no input
	// was held or flight recording is detached.
	holdStart int64
}

// SetBarrierHooks installs the checkpoint callbacks: save runs under
// ProcMu once the barrier has aligned, before it is forwarded downstream
// (the operator is quiescent — serialise state here, do no I/O); ack runs
// after the barrier has been forwarded and held inputs released (the
// coordinator hand-off — see internal/ft). Either may be nil. Install
// hooks before the graph starts; they are not synchronised against a
// running graph.
func (p *PipeBase) SetBarrierHooks(save, ack func(Barrier)) {
	p.onBarrierSave = save
	p.onBarrierAck = ack
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
	p.ProcMu.Lock()
	if b.ID <= p.barrier.lastDone {
		// Duplicate (a closed input delivering late) — already handled.
		p.ProcMu.Unlock()
		return
	}
	if p.barrier.round != b.ID {
		// A new round. With one outstanding checkpoint at a time (the
		// coordinator's contract) an older pending round can only mean
		// its remaining inputs died; adopt the newer barrier.
		p.barrier.round, p.barrier.seen = b.ID, 0
	}
	p.barrier.seen |= 1 << uint(input)
	if !p.aligned() {
		p.hold(input)
		p.ProcMu.Unlock()
		return
	}
	p.save(b)
	p.ProcMu.Unlock()
	p.finish(b)
}

// aligned reports whether the pending round's barrier has arrived on
// every input that is still open. Callers hold ProcMu.
func (p *PipeBase) aligned() bool {
	all := uint64(1)<<uint(p.inputs) - 1
	return (p.barrier.seen|p.closed)&all == all
}

// hold holds input until the round is released: the operator applies
// nothing more the input delivers (OnHold), and its done waits too. A
// closed input has nothing more to deliver. Callers hold ProcMu.
func (p *PipeBase) hold(input int) {
	if p.barrier.holdStart == 0 {
		if ref := p.fref.Load(); ref != nil {
			p.barrier.holdStart = ref.NowNS()
		}
	}
	bit := uint64(1) << uint(input)
	if p.InputDone(input) || p.barrier.held&bit != 0 {
		return
	}
	p.barrier.held |= bit
	p.OnHold(input)
}

// save retires the aligned round b and snapshots while the operator is
// quiescent: every open input other than the aligning one is held, and
// the aligning input's publisher is inside this call chain. Callers hold
// ProcMu.
func (p *PipeBase) save(b Barrier) {
	p.barrier.round, p.barrier.seen, p.barrier.lastDone = 0, 0, b.ID
	if p.onBarrierSave != nil {
		p.onBarrierSave(b)
	}
}

// finish completes the saved round b: it forwards the barrier before
// anything post-barrier is applied, releases the held inputs, and hands
// the round back to the coordinator last, so that when every operator
// has acked, every direct subscriber (sinks included) has seen the
// barrier. Called without ProcMu.
func (p *PipeBase) finish(b Barrier) {
	p.TransferControl(b)
	if p.inputs > 1 {
		p.release(b)
	}
	if p.onBarrierAck != nil {
		p.onBarrierAck(b)
	}
}

// release lets the held inputs go: the operator applies what they
// delivered while held (OnRelease), then the done signals they held.
func (p *PipeBase) release(b Barrier) {
	p.ProcMu.Lock()
	released := p.OnRelease()
	holdStart, done := p.barrier.holdStart, p.barrier.doneHeld
	p.barrier.held, p.barrier.doneHeld, p.barrier.holdStart = 0, 0, 0
	last := false
	for i := range p.inputs {
		if done&(1<<uint(i)) != 0 {
			last = p.close(i) || last
		}
	}
	p.Flush()
	p.ProcMu.Unlock()
	if last {
		p.SignalDone()
	}
	if ref := p.fref.Load(); ref != nil {
		if holdStart != 0 {
			ref.Phase(flight.KindAlignHold, int64(b.ID), ref.NowNS()-holdStart, int64(released))
		}
		if released > 0 {
			ref.Phase(flight.KindGateReplay, int64(b.ID), int64(released), 0)
		}
	}
}
