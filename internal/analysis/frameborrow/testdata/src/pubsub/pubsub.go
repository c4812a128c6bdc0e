// Package pubsub exercises frameborrow against the hand-off buffer's
// enqueue patterns: the free-list copy and the append into the tail chunk
// are clean, a zero-copy enqueue is the bug the analyzer exists to catch.
package pubsub

import "temporal"

type buffer struct {
	q           []temporal.Batch
	free        []temporal.Batch
	hookScratch temporal.Batch
	subs        []any
}

// The buffer is a Source: what it queues goes on to its own subscribers,
// so it owns the values it is handed.
func (b *buffer) Subscribe(s any, input int) error   { b.subs = append(b.subs, s); return nil }
func (b *buffer) Unsubscribe(s any, input int) error { return nil }
func (b *buffer) Subscriptions() []any               { return b.subs }

func (b *buffer) alloc() temporal.Batch {
	if n := len(b.free); n > 0 {
		blk := b.free[n-1]
		b.free = b.free[:n-1]
		return blk[:0]
	}
	return nil
}

// ProcessBatch copies the frame into owned storage at the boundary — the
// one place a frame legitimately crosses a scheduling gap.
func (b *buffer) ProcessBatch(batch temporal.Batch, input int) {
	own := b.alloc()
	own = append(own, batch...)
	b.q = append(b.q, own)
}

// appendToTail mirrors the buffer's coalescing of small frames: the spread
// copies the borrowed elements behind the tail chunk's own.
func (b *buffer) appendToTail(batch temporal.Batch) {
	if n := len(b.q); n > 0 {
		b.q[n-1] = append(b.q[n-1], batch...)
	}
}

// badEnqueue stores the borrowed header: by the time the drain side runs,
// the producer has already reused the backing array.
func (b *buffer) badEnqueue(batch temporal.Batch, input int) {
	b.q = append(b.q, batch) // want `retains the borrowed frame`
}

// rewriteHooks mirrors SourceBase.TransferBatch: the rebuilt frame lives
// in owned scratch, and reassigning the parameter is a local matter.
func (b *buffer) rewriteHooks(batch temporal.Batch) temporal.Batch {
	hb := b.hookScratch[:0]
	for _, e := range batch {
		hb = append(hb, e)
	}
	b.hookScratch = hb
	return hb
}
