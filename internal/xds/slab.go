package xds

import "unsafe"

const (
	slabShift = 8
	slabChunk = 1 << slabShift // slots in every chunk but a growing first one
	slabMask  = slabChunk - 1
	slabFirst = 4 // slots of a new slab's first chunk
)

// Slab stores values in fixed chunks and addresses each by an int32
// slot, so a structure that orders or indexes values can hold slots
// instead: 4 bytes and no pointer where a value would be. The first
// chunk grows by doubling from a few slots to slabChunk; every later
// chunk is allocated at slabChunk slots and never copied, so a slab that
// peaks at n values has allocated about n values' room, not the several
// times that a growing slice copies on its way. Taken slots are zeroed
// (they pin nothing) and reused, most recently taken first. The zero
// value is an empty slab.
type Slab[T any] struct {
	chunks [][]T
	free   []int32 // taken slots, reused last in, first out
	top    int32   // slots ever handed out: the next fresh slot
}

// Put stores v and returns its slot.
func (s *Slab[T]) Put(v T) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.chunks[slot>>slabShift][slot&slabMask] = v
		return slot
	}
	slot := s.top
	s.top++
	c, i := int(slot>>slabShift), int(slot&slabMask)
	switch {
	case c == len(s.chunks) && c == 0:
		s.chunks = append(s.chunks, make([]T, slabFirst))
	case c == len(s.chunks):
		s.chunks = append(s.chunks, make([]T, slabChunk))
	case i == len(s.chunks[c]): // only the first chunk is ever short
		grown := make([]T, min(2*i, slabChunk))
		copy(grown, s.chunks[c])
		s.chunks[c] = grown
	}
	s.chunks[c][i] = v
	return slot
}

// At returns the value stored at slot, which must be live.
func (s *Slab[T]) At(slot int32) T { return s.chunks[slot>>slabShift][slot&slabMask] }

// Take returns the value stored at slot, which must be live, and frees
// the slot.
func (s *Slab[T]) Take(slot int32) T {
	p := &s.chunks[slot>>slabShift][slot&slabMask]
	v := *p
	var zero T
	*p = zero // release the value for GC
	s.free = append(s.free, slot)
	return v
}

// Bytes returns what the slab has allocated: every chunk slot, live or
// free, and the free list.
func (s *Slab[T]) Bytes() int {
	var zero T
	n := 0
	if len(s.chunks) > 0 {
		n = len(s.chunks[0]) + (len(s.chunks)-1)*slabChunk
	}
	return n*int(unsafe.Sizeof(zero)) + cap(s.free)*4
}
