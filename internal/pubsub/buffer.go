package pubsub

import (
	"sync"
	"sync/atomic"

	"pipes/internal/telemetry"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// chunk is one queue entry: either a buffer-owned frame of data elements
// or (ctl non-nil) one in-band control element occupying its stream
// position. The buffer is the one asynchronous consumer, so it cannot
// borrow a published frame (temporal.Batch): it copies at enqueue and
// re-publishes the copy on drain, recycling the chunk through a free list
// afterwards. Controls always occupy their own entry, so a punctuation
// still cuts cleanly between frames.
type chunk struct {
	b   temporal.Batch
	off int // elements of b already drained (a Drain quantum may split a chunk)
	ctl Control
}

// Buffer is an explicit inter-operator queue, modelled as a pipe. PIPES
// connects operators directly and inserts buffers only at virtual-node
// boundaries, where the scheduler decouples producer and consumer threads:
// ProcessBatch enqueues, Drain (called by the scheduler) dequeues and
// publishes.
//
// Done is deferred until the queue has drained, preserving end-of-stream
// ordering. A buffer must be drained by a single scheduler thread at a
// time; ProcessBatch may be called concurrently with Drain. The ready hook
// (SetReady) runs after every enqueue and Done, so a parked drainer can be
// woken instead of polling.
type Buffer struct {
	SourceBase

	// ready is atomic because a publisher may enqueue — a barrier
	// injected from the checkpoint ticker — while the hook is installed.
	ready atomic.Pointer[func()]

	mu           sync.Mutex
	q            xds.Queue[*chunk]
	tail         *chunk   // newest data chunk while it is still queued and open for appends
	count        int      // buffered work units: elements + controls
	free         []*chunk // recycled chunks for enqueue copies
	upstreamDone bool
	// draining marks an in-progress Drain: a dequeued frame may still be
	// in flight downstream even though the queue reads empty, so Done must
	// leave end-of-stream propagation to the drainer (otherwise a sink
	// could observe done before the final element).
	draining bool
}

// NewBuffer returns an unbounded buffer.
func NewBuffer(name string) *Buffer {
	return &Buffer{SourceBase: NewSourceBase(name)}
}

// ProcessBatch implements BatchSink by enqueueing a copy of the frame
// (the published frame is only borrowed for this call). A small frame is
// appended to the tail chunk, up to FrameCap elements, rather than given
// its own, which makes the buffer a re-framing point: elements enqueued
// one by one leave in frames (a published frame larger than FrameCap is
// kept whole).
func (b *Buffer) ProcessBatch(batch temporal.Batch, _ int) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	if t := b.tail; t != nil && len(t.b)+len(batch) <= FrameCap {
		t.b = append(t.b, batch...)
	} else {
		var c *chunk
		if n := len(b.free); n > 0 {
			c, b.free = b.free[n-1], b.free[:n-1]
		} else {
			c = &chunk{b: make(temporal.Batch, 0, max(FrameCap, len(batch)))}
		}
		c.b = append(c.b, batch...)
		b.q.Enqueue(c)
		b.tail = c
	}
	b.count += len(batch)
	d := b.count
	b.mu.Unlock()
	if ref := b.fref.Load(); ref != nil {
		ref.Enqueue(len(batch), d)
	}
	b.notify()
}

// HandleControl implements ControlSink by enqueueing the control at its
// arrival position: it is re-published by the Drain call that dequeues
// it, after every data element that preceded it — FIFO passage is what
// lets checkpoints treat buffer contents as pre-barrier state recorded
// upstream, so a Buffer holds no checkpoint state of its own (see
// FAULT_TOLERANCE.md).
func (b *Buffer) HandleControl(c Control, _ int) {
	b.mu.Lock()
	b.q.Enqueue(&chunk{ctl: c})
	b.tail = nil
	b.count++
	b.mu.Unlock()
	b.notify()
}

// Done implements Sink. Completion propagates immediately if the buffer is
// empty and no drain is in flight, otherwise on the Drain call that
// empties it.
func (b *Buffer) Done(_ int) {
	b.mu.Lock()
	b.upstreamDone = true
	fire := b.q.Len() == 0 && !b.draining
	b.mu.Unlock()
	if fire {
		b.SignalDone()
	}
	b.notify() // the drainer still owes the final batch
}

// SetReady installs fn as the hook run after every enqueue, control and
// Done: the scheduler's wake-up for the buffer's drainer. fn must not
// block.
func (b *Buffer) SetReady(fn func()) { b.ready.Store(&fn) }

func (b *Buffer) notify() {
	if fn := b.ready.Load(); fn != nil {
		(*fn)()
	}
}

// Drain dequeues and publishes up to max work units (everything buffered
// if max <= 0) and returns how many were transferred: each chunk leaves as
// one frame, split when it exceeds what is left of max. If the upstream
// has signalled done and the buffer empties, done is propagated
// downstream. At most one goroutine may drain at a time (the scheduler
// guarantees this via single-owner task activation); ProcessBatch and
// Done may be called concurrently with Drain.
func (b *Buffer) Drain(max int) int {
	n := 0
	b.mu.Lock()
	b.draining = true
	for max <= 0 || n < max {
		c, ok := b.q.Peek()
		if !ok {
			break
		}
		if c.ctl != nil {
			b.q.Dequeue()
			b.count--
			b.mu.Unlock()
			b.TransferControl(c.ctl)
			n++
			b.mu.Lock()
			continue
		}
		// A split leaves the chunk queued (and, if it is the tail, open:
		// appends land behind the view in flight and never touch it).
		frame := c.b[c.off:]
		whole := max <= 0 || len(frame) <= max-n
		if whole {
			b.q.Dequeue()
			if b.tail == c {
				b.tail = nil
			}
		} else {
			frame = frame[:max-n]
			c.off += len(frame)
		}
		b.count -= len(frame)
		b.mu.Unlock()
		for _, e := range frame {
			if tr := telemetry.FromElement(e); tr != nil {
				tr.Hop(b.Name(), "queue", e.Start)
			}
		}
		b.TransferBatch(frame)
		n += len(frame)
		b.mu.Lock()
		// The downstream borrow ended with TransferBatch's return.
		if whole && len(b.free) < 16 {
			c.b, c.off = c.b[:0], 0
			b.free = append(b.free, c)
		}
	}
	b.draining = false
	finished := b.upstreamDone && b.q.Len() == 0
	depth := b.count
	b.mu.Unlock()
	if ref := b.fref.Load(); ref != nil && n > 0 {
		ref.Drained(n, depth)
	}
	if finished {
		b.SignalDone()
	}
	return n
}

// Len returns the number of buffered work units: data elements plus
// in-band controls.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// UpstreamDone reports whether the producer side has signalled done.
func (b *Buffer) UpstreamDone() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.upstreamDone
}
