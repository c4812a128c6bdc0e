package aggregate

import (
	"fmt"
	"reflect"
	"unsafe"
)

// chunkBytes is the size of one chunk a Boxes or a Boxed hands values
// out of: the largest size the allocator gives an object with pointers
// without a header.
const chunkBytes = 512

// chunkSize is the number of 8-byte results one chunk of a Boxes holds.
const chunkSize = chunkBytes / 8

// Boxes hands out the results of the built-in aggregates as interface
// values that point into chunks it owns, so a run of results costs one
// allocation per chunkSize of them instead of one each. Value returns
// exactly what the aggregate's own Value returns: the same dynamic type
// and value, nil when empty. A slot is written once and never reused; a
// chunk lives as long as any value pointing into it is referenced.
//
// Only float64 and int64 results are written into slots, each type by a
// Boxed of its own.
//
// The zero Boxes is ready to use. A Boxes is not safe for concurrent
// use: an operator keeps one and uses it under its processing lock.
type Boxes struct {
	floats Boxed[float64]
	ints   Boxed[int64]
}

// Value returns a.Value(), boxed into a slot for a built-in aggregate's
// numeric result. Other aggregates' results are a.Value() itself.
func (b *Boxes) Value(a Aggregate) any {
	switch r := a.(type) {
	case *Count:
		n := r.intResult()
		if uint64(n) < 256 {
			return n // the runtime boxes these without allocating
		}
		return b.ints.Box(n)
	case floatResult:
		f, held, ok := r.floatResult()
		if !ok || held != nil {
			return boxFloat(f, held, ok)
		}
		return b.floats.Box(f)
	}
	return a.Value()
}

// Boxed hands out values of T as interface values that point into
// write-once chunks of chunkBytes it owns, as Boxes does for aggregate
// results: a run of values costs one allocation a chunk instead of one
// each. T must not be pointer-shaped (typeOf). The zero Boxed is ready
// to use; it is not safe for concurrent use.
type Boxed[T any] struct {
	free []T
	t    boxedType
}

// Box returns v as an interface value, written into the next slot.
func (b *Boxed[T]) Box(v T) any {
	if len(b.free) == 0 {
		if b.t.typ == nil {
			b.t = typeOf[T]()
		}
		b.free = make([]T, max(1, chunkBytes/int(unsafe.Sizeof(v))))
	}
	slot := &b.free[0]
	*slot = v
	b.free = b.free[1:]
	return b.t.at(unsafe.Pointer(slot))
}

// Chunks hands out runs of T from write-once []T chunks it owns, so a
// run costs a fraction of an allocation instead of one: the first chunk
// holds firstRuns runs and each next one twice as many, up to maxRuns,
// so an owner that takes one or two runs holds a few, not a full chunk.
// A run is never handed out twice; its memory comes back only when
// nothing references any run of its chunk. The zero Chunks is ready to
// use; it is not safe for concurrent use.
type Chunks[T any] struct {
	free []T
	runs int // runs the last chunk held
}

const (
	firstRuns = 4
	maxRuns   = 64
)

// New returns a pointer to a zero T in the next slot.
func (c *Chunks[T]) New() *T { return &c.Take(1)[0] }

// Take returns the next k zero Ts, of capacity k. An owner takes runs of
// one length, so a chunk holds a whole number of them.
func (c *Chunks[T]) Take(k int) []T {
	if len(c.free) < k {
		c.runs = min(max(2*c.runs, firstRuns), maxRuns)
		c.free = make([]T, c.runs*k)
	}
	run := c.free[:k:k]
	c.free = c.free[k:]
	return run
}

// boxedType is the dynamic-type word of a type whose interface values
// hold a pointer to the value: the type a Boxed boxes in place.
type boxedType struct{ typ unsafe.Pointer }

// eface is the layout of an interface value without methods.
type eface struct {
	typ, data unsafe.Pointer
}

// typeOf returns T's type word. It refuses a pointer-shaped T — a
// pointer, map, channel, function or unsafe.Pointer, or an array or
// struct of exactly one such element — whose interface value holds the
// value itself in its data word, so that boxing one in place would be
// wrong; and a T of no size, which has no slot to point at.
func typeOf[T any]() boxedType {
	t := reflect.TypeFor[T]()
	if t.Size() == 0 || pointerShaped(t) {
		panic(fmt.Sprintf("aggregate: %v cannot be boxed in place", t))
	}
	var v any = *new(T)
	return boxedType{(*eface)(unsafe.Pointer(&v)).typ}
}

// pointerShaped reports whether an interface value holds a t in its data
// word itself rather than a pointer to it.
func pointerShaped(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() == 1 && pointerShaped(t.Elem())
	case reflect.Struct:
		return t.NumField() == 1 && pointerShaped(t.Field(0).Type)
	}
	return false
}

// at returns the interface value of type t whose data word is p, which
// points at a value of t: the value boxed where it is, nothing
// allocated.
func (t boxedType) at(p unsafe.Pointer) any {
	var v any
	*(*eface)(unsafe.Pointer(&v)) = eface{typ: t.typ, data: p}
	return v
}
