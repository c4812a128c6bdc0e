package ops

import "pipes/internal/temporal"

// Union merges any number of input streams into one (multiset union per
// snapshot). Inputs are individually ordered by Start; Union restores the
// global order by buffering each element until every other open input's
// watermark has passed it.
type Union struct{ ordered }

// NewUnion returns a union over `inputs` streams (inputs >= 2).
func NewUnion(name string, inputs int) *Union {
	if inputs < 2 {
		panic("ops: union needs at least two inputs")
	}
	u := &Union{}
	u.init(name, inputs, nil, nil)
	return u
}

// ProcessBatch implements pubsub.BatchSink.
func (u *Union) ProcessBatch(b temporal.Batch, input int) {
	u.ProcMu.Lock()
	defer u.ProcMu.Unlock()
	for _, e := range b {
		u.add(e)
		u.progress(input, e.Start)
	}
	u.Flush()
}

// Pending returns the number of buffered (not yet releasable) elements —
// exposed for memory accounting and tests.
func (u *Union) Pending() int {
	u.ProcMu.Lock()
	defer u.ProcMu.Unlock()
	return u.buffered()
}
