package xds

import (
	"cmp"
	"iter"
	"slices"
)

// Heap is a binary min-heap whose entries each carry the key they are
// ordered by; the engine keys its heaps by a time (a Start, an End or a
// holdback bound). The zero value is an empty heap.
//
// Entries with equal keys keep no insertion order: where they sit in the
// backing array follows from the sequence of pushes and pops alone, so
// two heaps fed the same operations hold the same array.
type Heap[K cmp.Ordered, V any] struct {
	data []entry[K, V]
}

type entry[K cmp.Ordered, V any] struct {
	k K
	v V
}

// Len returns the number of stored entries.
func (h *Heap[K, V]) Len() int { return len(h.data) }

// Push adds v under key k.
func (h *Heap[K, V]) Push(k K, v V) {
	h.data = append(h.data, entry[K, V]{k, v})
	h.up(len(h.data) - 1)
}

// Peek returns the entry of the smallest key without removing it; ok is
// false when the heap is empty.
func (h *Heap[K, V]) Peek() (k K, v V, ok bool) {
	if len(h.data) == 0 {
		return k, v, false
	}
	return h.data[0].k, h.data[0].v, true
}

// Pop removes and returns the entry of the smallest key; ok is false
// when the heap is empty.
func (h *Heap[K, V]) Pop() (k K, v V, ok bool) {
	n := len(h.data)
	if n == 0 {
		return k, v, false
	}
	top := h.data[0]
	h.data[0] = h.data[n-1]
	h.data[n-1] = entry[K, V]{} // release the value for GC
	h.data = h.data[:n-1]
	if len(h.data) > 0 {
		h.down(0)
	}
	return top.k, top.v, true
}

// AppendTo appends the values to dst in array order (not sorted) and
// returns the extended slice. Pushing them back in that order under
// their keys rebuilds the same array.
func (h *Heap[K, V]) AppendTo(dst []V) []V {
	dst = slices.Grow(dst, len(h.data))
	for i := range h.data {
		dst = append(dst, h.data[i].v)
	}
	return dst
}

// All visits the entries in array order (not sorted). The heap must not
// change during the visit.
func (h *Heap[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for i := range h.data {
			if !yield(h.data[i].k, h.data[i].v) {
				return
			}
		}
	}
}

func (h *Heap[K, V]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !(h.data[i].k < h.data[parent].k) {
			return
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *Heap[K, V]) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.data[l].k < h.data[smallest].k {
			smallest = l
		}
		if r < n && h.data[r].k < h.data[smallest].k {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.data[i], h.data[smallest] = h.data[smallest], h.data[i]
		i = smallest
	}
}
