package xds

import "unsafe"

const (
	slabFirst = 4 // slots of a new slab's first chunk

	// A chunk is allocated as exactly its slots' bytes when it is a
	// large object — above the allocator's largest small size less the
	// 8-byte header a small pointerful object carries — that fills whole
	// pages. A small chunk of pointerful values is rounded up by that
	// header into the next size class: 256 64-byte slots, 16 392 bytes,
	// take 18 432.
	smallestLarge = 32768 - 8 + 1
	pageBytes     = 8192
)

// Slab stores values in fixed chunks and addresses each by an int32
// slot, so a structure that orders or indexes values can hold slots
// instead: 4 bytes and no pointer where a value would be. The first
// chunk grows by doubling from a few slots to a full chunk; every later
// chunk is allocated full and never copied, so a slab that peaks at n
// values has allocated about n values' room, not the several times that
// a growing slice copies on its way. A full chunk is the fewest slots,
// at least 1 024 and a power of two, whose bytes are a whole number of
// pages above the allocator's small sizes (chunkShift): the allocator
// rounds nothing up. Taken slots are zeroed (they pin nothing) and
// reused, most recently taken first. The zero value is an empty slab.
type Slab[T any] struct {
	chunks [][]T
	free   []int32 // taken slots, reused last in, first out
	top    int32   // slots ever handed out: the next fresh slot
	shift  uint8   // log2 of a full chunk's slots, set with the first chunk
}

// chunkShift returns log2 of the slots in a full chunk of values of size
// bytes: the smallest power of two, at least 1 024, whose slots fill
// whole pages of a large object.
func chunkShift(size uintptr) uint8 {
	size = max(size, 1)
	s := uint8(10)
	for size<<s < smallestLarge || (size<<s)%pageBytes != 0 {
		s++
	}
	return s
}

// Put stores v and returns its slot.
func (s *Slab[T]) Put(v T) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		*s.ptr(slot) = v
		return slot
	}
	if s.chunks == nil {
		s.reserve(slabFirst)
	}
	slot := s.top
	s.top++
	c, i := int(slot>>s.shift), int(slot&s.mask())
	full := 1 << s.shift
	switch {
	case c == len(s.chunks):
		s.chunks = append(s.chunks, make([]T, full))
	case i == len(s.chunks[c]): // only the first chunk is ever short
		grown := make([]T, min(max(2*i, slabFirst), full))
		copy(grown, s.chunks[c])
		s.chunks[c] = grown
	}
	s.chunks[c][i] = v
	return slot
}

// Next returns the slot the next Put returns.
func (s *Slab[T]) Next() int32 {
	if n := len(s.free); n > 0 {
		return s.free[n-1]
	}
	return s.top
}

// reserve gives an empty slab a first chunk of room for n values, up to
// a full chunk.
func (s *Slab[T]) reserve(n int) {
	var zero T
	s.shift = chunkShift(unsafe.Sizeof(zero))
	s.chunks = append(s.chunks, make([]T, min(n, 1<<s.shift)))
}

func (s *Slab[T]) mask() int32 { return 1<<s.shift - 1 }

// ptr returns where slot's value is stored.
func (s *Slab[T]) ptr(slot int32) *T { return &s.chunks[slot>>s.shift][slot&s.mask()] }

// At returns the value stored at slot, which must be live.
func (s *Slab[T]) At(slot int32) T { return *s.ptr(slot) }

// Take returns the value stored at slot, which must be live, and frees
// the slot.
func (s *Slab[T]) Take(slot int32) T {
	p := s.ptr(slot)
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
		n = len(s.chunks[0]) + (len(s.chunks)-1)<<s.shift
	}
	return n*int(unsafe.Sizeof(zero)) + cap(s.free)*4
}
