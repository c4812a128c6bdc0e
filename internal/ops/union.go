package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// Union merges any number of input streams into one (multiset union per
// snapshot). Inputs are individually ordered by Start; Union restores the
// global order by buffering each element until every other open input's
// watermark has passed it.
type Union struct {
	pubsub.PipeBase
	out *orderBuffer
}

// NewUnion returns a union over `inputs` streams (inputs >= 2).
func NewUnion(name string, inputs int) *Union {
	if inputs < 2 {
		panic("ops: union needs at least two inputs")
	}
	u := &Union{PipeBase: pubsub.NewPipeBase(name, inputs), out: newOrderBuffer(inputs)}
	u.OnInputDone = func(input int) {
		u.out.markDone(input)
		u.out.release(u.out.watermark(), u.Emit)
	}
	u.OnAllDone = func() { u.out.flush(u.Emit) }
	return u
}

// ProcessBatch implements pubsub.BatchSink.
func (u *Union) ProcessBatch(b temporal.Batch, input int) {
	u.ProcMu.Lock()
	defer u.ProcMu.Unlock()
	for _, e := range b {
		u.out.add(e)
		u.out.observe(input, e.Start)
		u.out.release(u.out.watermark(), u.Emit)
	}
	u.Flush()
}

// Pending returns the number of buffered (not yet releasable) elements —
// exposed for memory accounting and tests.
func (u *Union) Pending() int {
	u.ProcMu.Lock()
	defer u.ProcMu.Unlock()
	return u.out.len()
}

// MemoryUsage implements the metadata/memory reporter.
func (u *Union) MemoryUsage() int { return u.Pending() * 64 }
