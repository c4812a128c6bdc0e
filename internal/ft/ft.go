// Package ft is the fault-tolerance subsystem: coordinated checkpoints of
// running query graphs and crash recovery with source replay.
//
// # Protocol
//
// A checkpoint round is an aligned-barrier snapshot in the style of
// Chandy–Lamport, adapted to PIPES' synchronous push graphs: the
// coordinator (Manager) injects a pubsub.Barrier punctuation at every
// source of the graph; the barrier flows downstream in stream order
// (pubsub's control-element channel — through direct connections
// synchronously, through Buffers in FIFO position); every registered
// stateful operator snapshots its state the instant the barrier aligns
// across its inputs, then forwards the barrier and acks. A round is
// complete when every source has reported its replay offset and every
// registered participant has acked; only then is the checkpoint handed to
// the background writer and sealed in the store. The consequence, proved
// by the alignment rules in pubsub:
//
//   - every state change caused by a pre-barrier element is inside the
//     snapshot, every post-barrier change is outside it;
//   - Buffers need no state in the checkpoint: the barrier is enqueued
//     behind all pre-barrier data, so downstream operators snapshot only
//     after that data has drained into their own state;
//   - when a round is sealed, the barrier has reached every sink, so a
//     sink's recorded cut index for that round is exact.
//
// # State contract
//
// Operators participate through the structural StateSaver/StateLoader
// contract (implemented in internal/ops, without an ft import):
// SnapshotState runs under the operator's ProcMu at alignment and only
// captures; the returned closure encodes on the Manager's background
// writer, which also does the durable write — both off the hot path.
// State is bytes in the engine's value codec (internal/wire): a value
// type outside its tagged set travels through its gob fallback once
// registered with wire.RegisterType (the facade's RegisterCheckpointType).
// Element trace slots are dropped: traces do not survive a crash.
// LoadState runs on a freshly built, not-yet-started operator.
//
// # Recovery
//
// Recover a crashed query by (1) rebuilding its graph — from the stored
// planio description or programmatically — with the same operator names,
// (2) loading the latest complete checkpoint and applying each operator's
// state via RestoreStates, and (3) replaying each source from its
// recorded offset (internal/archive's ReplayFrom is the canonical replay
// source). The recovered output, appended to the pre-crash output
// truncated at the checkpoint's sink cut, is snapshot-equivalent to an
// uninterrupted run — the oracle checked by the recovery stress test.
package ft

// StateSaver is implemented by every checkpointable operator.
// SnapshotState captures a cheap immutable snapshot handle of the
// operator's state (slice copies of the live collections — no encoding)
// and returns a closure that appends the handle's encoding to dst later
// and returns the extended slice. The closure is invoked on the Manager's
// background writer after the barrier gates have released, so the encode
// — the dominant cost of a large snapshot — leaves the barrier stall
// entirely; the writer passes a buffer it reuses round after round.
//
// The closure runs at most once. An operator may copy into buffers it
// keeps between rounds, leased to the capture and handed back by the
// closure's one call; a second call returns an error, because those
// buffers may already hold the next capture. A closure never called only
// leaves its buffers to the garbage collector.
//
// SnapshotState is called with the operator quiescent (under ProcMu,
// inputs aligned); it takes no locks and does no I/O. The returned closure
// must depend only on the captured copies (and on element values, which
// are immutable by the engine's purity contract — see CONCURRENCY.md) so
// it can run concurrently with post-barrier processing. The interface is
// declared with std-library types only so implementations stay
// structurally matchable without importing ft.
type StateSaver interface {
	SnapshotState() (func(dst []byte) ([]byte, error), error)
}

// StateLoader restores state saved by the same operator type's
// StateSaver. Called on a freshly constructed operator before the graph
// starts; state is the closure's whole output, and anything it cannot
// decode to the end is an error.
type StateLoader interface {
	LoadState(state []byte) error
}

// EncodeState captures op's state and encodes it at once — the
// synchronous form for callers that need the bytes now (tests, tools).
// Like SnapshotState it requires op to be quiescent.
func EncodeState(op StateSaver) ([]byte, error) {
	fn, err := op.SnapshotState()
	if err != nil {
		return nil, err
	}
	return fn(nil)
}
