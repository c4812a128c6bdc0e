package xds

import (
	"cmp"
	"iter"
	"unsafe"
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

// Bytes returns the size of the backing array, used or not.
func (h *Heap[K, V]) Bytes() int { return cap(h.data) * int(unsafe.Sizeof(entry[K, V]{})) }

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

// IndexedHeap is a binary min-heap of keys with at most one entry per
// owner, an int32 id the caller picks (a keyed record's id): the owner
// pushes its entry, moves it to a new key (Set) or removes it (Remove) in
// O(log n), so the heap holds exactly one entry per owner and never a
// stale one, and the top names its owner. It holds no pointer while K
// holds none. The zero value is an empty heap.
type IndexedHeap[K cmp.Ordered] struct {
	data []ownedEntry[K]
	at   []int32 // by owner: its entry's index in data, -1 while it has none
}

type ownedEntry[K cmp.Ordered] struct {
	k  K
	id int32
}

// Len returns the number of entries.
func (h *IndexedHeap[K]) Len() int { return len(h.data) }

// Bytes returns the size of the backing arrays, used or not.
func (h *IndexedHeap[K]) Bytes() int {
	return cap(h.data)*int(unsafe.Sizeof(ownedEntry[K]{})) + cap(h.at)*4
}

// Push adds the entry of owner id, which must have none, at key k.
func (h *IndexedHeap[K]) Push(id int32, k K) {
	for int(id) >= len(h.at) {
		h.at = append(h.at, -1)
	}
	h.data = append(h.data, ownedEntry[K]{k, id})
	h.at[id] = int32(len(h.data) - 1)
	h.up(len(h.data) - 1)
}

// Peek returns the smallest key and its owner; ok is false when the heap
// is empty.
func (h *IndexedHeap[K]) Peek() (k K, id int32, ok bool) {
	if len(h.data) == 0 {
		return k, -1, false
	}
	return h.data[0].k, h.data[0].id, true
}

// Set moves the entry of owner id, which must have one, to key k.
func (h *IndexedHeap[K]) Set(id int32, k K) {
	i := int(h.at[id])
	old := h.data[i].k
	h.data[i].k = k
	switch {
	case k < old:
		h.up(i)
	case old < k:
		h.down(i)
	}
}

// Remove removes the entry of owner id, which must have one.
func (h *IndexedHeap[K]) Remove(id int32) {
	i, last := int(h.at[id]), len(h.data)-1
	h.at[id] = -1
	if i != last {
		h.data[i] = h.data[last]
		h.at[h.data[i].id] = int32(i)
	}
	h.data = h.data[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *IndexedHeap[K]) swap(i, j int) {
	h.data[i], h.data[j] = h.data[j], h.data[i]
	h.at[h.data[i].id], h.at[h.data[j].id] = int32(i), int32(j)
}

func (h *IndexedHeap[K]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !(h.data[i].k < h.data[parent].k) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap[K]) down(i int) {
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
		h.swap(i, smallest)
		i = smallest
	}
}
