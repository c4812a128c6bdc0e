// Package xds provides the small container library PIPES borrows from XXL:
// FIFO queues (bounded and unbounded), a comparator-based binary heap and a
// growable ring buffer. The pub-sub runtime, the scheduler and the sweep
// areas are all built on these exchangeable components.
package xds

import "errors"

// ErrFull is returned by bounded containers when an insertion would exceed
// their capacity.
var ErrFull = errors.New("xds: container is full")

// Queue is the FIFO abstraction used for inter-virtual-node buffers. A
// queue is not safe for concurrent use; callers synchronise externally
// (the scheduler owns one lock per queued connection).
type Queue[T any] interface {
	// Enqueue appends v. Bounded implementations return ErrFull when at
	// capacity.
	Enqueue(v T) error
	// Dequeue removes and returns the oldest element; ok is false when the
	// queue is empty.
	Dequeue() (v T, ok bool)
	// Peek returns the oldest element without removing it.
	Peek() (v T, ok bool)
	// Len returns the number of buffered elements.
	Len() int
	// AppendTo appends the buffered elements to dst in FIFO order
	// (oldest first) without consuming them. Checkpoint captures copy
	// queues through it, into buffers they keep round after round.
	AppendTo(dst []T) []T
}

// ringQueue is an unbounded FIFO backed by a growable circular buffer.
type ringQueue[T any] struct {
	buf   []T
	head  int
	size  int
	bound int // 0 = unbounded
}

// NewQueue returns an unbounded FIFO queue.
func NewQueue[T any]() Queue[T] { return &ringQueue[T]{} }

// NewBoundedQueue returns a FIFO queue rejecting insertions beyond cap
// elements. cap must be positive.
func NewBoundedQueue[T any](capacity int) Queue[T] {
	if capacity <= 0 {
		panic("xds: bounded queue capacity must be positive")
	}
	return &ringQueue[T]{bound: capacity}
}

func (q *ringQueue[T]) Enqueue(v T) error {
	if q.bound > 0 && q.size == q.bound {
		return ErrFull
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	return nil
}

func (q *ringQueue[T]) Dequeue() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release reference for GC
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v, true
}

func (q *ringQueue[T]) Peek() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

func (q *ringQueue[T]) Len() int { return q.size }

func (q *ringQueue[T]) AppendTo(dst []T) []T {
	if tail := q.head + q.size; tail <= len(q.buf) {
		return append(dst, q.buf[q.head:tail]...)
	}
	dst = append(dst, q.buf[q.head:]...)
	return append(dst, q.buf[:q.head+q.size-len(q.buf)]...)
}

func (q *ringQueue[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	if q.bound > 0 && n > q.bound {
		n = q.bound
	}
	next := make([]T, n)
	for i := 0; i < q.size; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}
