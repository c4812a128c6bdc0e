// Package xds provides the containers PIPES borrows from XXL: a FIFO
// queue on a growable ring (multi-input operators' arrivals, CountWindow,
// the pub-sub buffer); a binary min-heap keyed by an ordered key (the
// order buffer, the expiry heaps, Sample's live elements), and an indexed
// one holding one entry per owner id, which the owner moves and removes
// (the holdback, Coalesce's end heap); a slab that stores values in fixed
// chunks under int32 slots, so that a heap or an index can order slots
// instead of the values; and per-key lists whose nodes share one slab
// (the keyed operators' tables and the hash sweep area's buckets). All
// are concrete types whose zero value is ready to use; none is safe for
// concurrent use, so their owners lock (an operator its processing lock,
// the pub-sub buffer its own).
package xds

// Queue is an unbounded FIFO backed by a growable circular buffer. The
// zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
	size int
}

// Enqueue appends v.
func (q *Queue[T]) Enqueue(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
}

// Dequeue removes and returns the oldest element; ok is false when the
// queue is empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release reference for GC
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Len returns the number of buffered elements.
func (q *Queue[T]) Len() int { return q.size }

// AppendTo appends the buffered elements to dst in FIFO order (oldest
// first) without consuming them. Checkpoint captures copy queues through
// it, into buffers they keep round after round.
func (q *Queue[T]) AppendTo(dst []T) []T {
	if tail := q.head + q.size; tail <= len(q.buf) {
		return append(dst, q.buf[q.head:tail]...)
	}
	dst = append(dst, q.buf[q.head:]...)
	return append(dst, q.buf[:q.head+q.size-len(q.buf)]...)
}

func (q *Queue[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	q.buf = q.AppendTo(make([]T, 0, n))[:n]
	q.head = 0
}
