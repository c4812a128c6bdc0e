package aggregate

import (
	"math"
	"unsafe"
)

// chunkSize is the number of results one chunk of a Boxes holds.
const chunkSize = 64

// Boxes hands out the results of the built-in aggregates as interface
// values that point into chunks it owns, so a run of results costs one
// allocation per chunkSize of them instead of one each. Value returns
// exactly what the aggregate's own Value returns: the same dynamic type
// and value, nil when empty. A slot is written once and never reused; a
// chunk lives as long as any value pointing into it is referenced.
//
// Only float64 and int64 results are written into slots. Their interface
// value is a type word and a pointer to the 8 bytes, which is all this
// file builds; for a pointer-shaped type the data word is the value
// itself, so the same construction would be wrong.
//
// The zero Boxes is ready to use. A Boxes is not safe for concurrent
// use: an operator keeps one and uses it under its processing lock.
type Boxes struct {
	free []uint64 // the current chunk's unwritten slots
}

// eface is the layout of an interface value without methods.
type eface struct {
	typ, data unsafe.Pointer
}

var (
	floatType = typeWord(float64(0))
	intType   = typeWord(int64(0))
)

// typeWord returns the dynamic-type word of v.
func typeWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

// Value returns a.Value(), boxed into a slot for a built-in aggregate's
// numeric result. Other aggregates' results are a.Value() itself.
func (b *Boxes) Value(a Aggregate) any {
	switch r := a.(type) {
	case *Count:
		n := r.intResult()
		if uint64(n) < 256 {
			return n // the runtime boxes these without allocating
		}
		return b.box(intType, uint64(n))
	case floatResult:
		f, held, ok := r.floatResult()
		if !ok || held != nil {
			return boxFloat(f, held, ok)
		}
		return b.box(floatType, math.Float64bits(f))
	}
	return a.Value()
}

// box writes bits into the next slot and returns the interface value of
// dynamic type typ that points at it.
func (b *Boxes) box(typ unsafe.Pointer, bits uint64) any {
	if len(b.free) == 0 {
		b.free = new([chunkSize]uint64)[:]
	}
	slot := &b.free[0]
	*slot = bits
	b.free = b.free[1:]
	var v any
	*(*eface)(unsafe.Pointer(&v)) = eface{typ: typ, data: unsafe.Pointer(slot)}
	return v
}
