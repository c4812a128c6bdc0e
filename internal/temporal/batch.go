package temporal

// Batch is a frame: a contiguous run of stream elements handed between
// nodes as one unit — the engine's only unit of transfer — so the virtual-
// call and locking costs of the transfer path amortise across the run (see
// DESIGN.md, "Frames"). A frame is plain data — the elements inside it
// obey the stream invariant (non-decreasing Start) — and it never spans a
// control punctuation: a barrier or metadata element always cuts the
// current frame, so every consumer observes the same stream prefix at
// every punctuation whatever the frame size. Processing a frame means
// processing its elements one by one, in order (SEMANTICS.md §3.7).
//
// Ownership contract (enforced by pipesvet:frameborrow, checked by the
// frame-size invariance harness in internal/harness):
//
//   - The producer owns the frame. It may build the frame incrementally in
//     place and — crucially — may reuse the same backing array as scratch
//     for its next frame once the publishing TransferBatch call returns.
//   - During TransferBatch every subscriber borrows the frame: it may read
//     it and forward it further downstream within the same call (the
//     borrow nests through synchronous hops), but it must copy out any
//     element it keeps and must not retain or mutate the slice after its
//     ProcessBatch returns. A terminal sink that does not declare
//     pubsub.ValueKeeper borrows the element values too, when the
//     producer lends them (pubsub.SourceBase.Lend, SEMANTICS.md §3.7).
//   - The one asynchronous consumer, pubsub.Buffer, copies the frame into
//     buffer-owned storage at enqueue (recycled through a free list after
//     drain). Between its Drain and the consuming ProcessBatch call that
//     copy is single-owner: exactly one scheduler worker holds it (see
//     CONCURRENCY.md).
//
// The borrow rule is what lets every hop run allocation-free in steady
// state: sources publish views or reused scratch, operators emit into
// their reused output frame, and only the scheduler boundary pays one copy
// per frame.
type Batch []Element
