package ops

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/wire"
	"pipes/internal/xds"
)

// rowBytes is what one free row holds in the memory manager's
// estimates: a cleared map of up to eight fields, its header and one
// slot group.
const rowBytes = 336

// rows is the free list of a node that delivers its results in
// map-shaped rows and lends them (pubsub.SourceBase.Lend; SEMANTICS.md
// §3.7): the planner's π (Project) and γ (NewGroupInto). A row is filled
// when its result leaves the node: π's as it maps an element, γ's as
// its core releases a span. It goes out with a frame and comes back,
// cleared, once a frame lent to a borrower (a terminal sink that does
// not declare pubsub.ValueKeeper) has been delivered; a row published
// while nobody borrows belongs to the subscribers and never comes back,
// so the next row is a new one. A frame holds at most pubsub.FrameCap
// results, so that many free rows cover the next frame: the list is
// allocated once at that capacity and keeps no more. It is the node's,
// guarded by its ProcMu: get runs in the node's body, put from its
// TransferBatch.
//
// In a test binary a row that comes back is poisoned: cleared and
// holding only poisonField, which get removes again. A sink that keeps a
// lent row without declaring KeepsValues then finds the poison, or the
// row's next contents, instead of its fields, and fails its checksum or
// the differential instead of passing while the row happens not to be
// reused.
type rows[M ~map[string]any] struct {
	free []M
}

// lend makes s lend the rows: owners get maps.Clone copies, and lent rows
// come back to the free list.
func (r *rows[M]) lend(s *pubsub.SourceBase) {
	s.Lend(func(v any) any { return maps.Clone(v.(M)) }, r.put)
}

// poisonRows is whether rows that come back are poisoned: in test
// binaries only.
var poisonRows = testing.Testing()

// poisonField is the one field of a poisoned row.
const poisonField = "\x00reclaimed"

// get returns an empty row: a free one if there is one, else a new one.
func (r *rows[M]) get() M {
	if n := len(r.free); n > 0 {
		row := r.free[n-1]
		r.free = r.free[:n-1]
		if poisonRows {
			delete(row, poisonField)
		}
		return row
	}
	return make(M)
}

// put takes back a row that was lent: cleared, and kept unless the list
// is full.
func (r *rows[M]) put(v any) {
	row := v.(M)
	clear(row)
	if poisonRows {
		row[poisonField] = "a lent row its lender took back"
	}
	if r.free == nil {
		r.free = make([]M, 0, pubsub.FrameCap)
	}
	if len(r.free) < pubsub.FrameCap {
		r.free = append(r.free, row)
	}
}

// bytes is what the free rows hold.
func (r *rows[M]) bytes() int { return len(r.free) * rowBytes }

// cellShift is log2 of the slots in a full chunk of cells: 1 024, the
// core's slab's chunk for its 48-byte elements.
const cellShift = 10

// cells holds the values of γ's pending rows (NewGroupInto): w cells a
// result, one a column, at the result's slot in the core. No row exists
// while a result is pending; release fills one from the node's free
// list when the core releases the result, and clears the slot's cells
// for the next result the slot takes. The cells are in chunks of 1 024
// slots that are never copied once full; the first grows by doubling up
// to that, as the core's slab does. They are the node's, guarded by its
// ProcMu.
type cells struct {
	shape  *rowShape
	chunks [][]any
	row    func(vals []any) any               // a free row holding vals under the columns
	fields func(v any) (map[string]any, bool) // a decoded pending value's fields, if it is a row
}

// rowShape is what the state codec needs to write a row it holds as
// cells: the columns and the tag of the row's type. It never changes
// once the node is built, so a capture refers to it.
type rowShape struct {
	cols []string // in byte order, each once
	tag  byte
}

// newCells returns the cells of a γ whose rows are Ms holding the
// columns cols, which must be in byte order, each once: the order a
// row's encoding writes its fields in. A row is encoded from its cells
// as the state codec writes an M, so M must be a map[string]any or a
// type registered under AppendMap's payload (cql.Tuple).
func newCells[M ~map[string]any](cols []string, r *rows[M]) *cells {
	if !slices.IsSorted(cols) || len(slices.Compact(slices.Clone(cols))) != len(cols) {
		panic(fmt.Sprintf("ops: γ's columns %q are not in byte order, each once", cols))
	}
	probe := M{"a": 1}
	enc, err := wire.AppendValue(nil, probe)
	if err != nil || len(enc) == 0 {
		panic(fmt.Sprintf("ops: γ's rows are %T, which the state codec cannot write", probe))
	}
	if want, _ := wire.AppendMap([]byte{enc[0]}, probe); !bytes.Equal(enc, want) {
		panic(fmt.Sprintf("ops: the state codec writes γ's rows, %T, as no map", probe))
	}
	return &cells{
		shape: &rowShape{cols: cols, tag: enc[0]},
		row: func(vals []any) any {
			row := r.get()
			for i, c := range cols {
				row[c] = vals[i]
			}
			return row
		},
		fields: func(v any) (map[string]any, bool) {
			m, ok := v.(M)
			return m, ok
		},
	}
}

// at returns slot's cells, growing the store to hold them.
func (s *cells) at(slot int32) []any {
	w := len(s.shape.cols)
	c, i := int(slot>>cellShift), int(slot&(1<<cellShift-1))*w
	for c >= len(s.chunks) {
		n := 1 << cellShift
		if len(s.chunks) == 0 {
			n = 4
		}
		s.chunks = append(s.chunks, make([]any, n*w))
	}
	if ch := s.chunks[c]; i+w > len(ch) { // only the first chunk is ever short
		grown := make([]any, min(max(2*len(ch), i+w), w<<cellShift))
		copy(grown, ch)
		s.chunks[c] = grown
	}
	return s.chunks[c][i : i+w : i+w]
}

// release returns the row of the result the core releases from slot,
// filled from the slot's cells, which it clears.
func (s *cells) release(slot int32) any {
	vals := s.at(slot)
	row := s.row(vals)
	clear(vals)
	return row
}

// appendSlots appends the cells of the heap's slots to dst in heap
// array order: a capture's copy of the pending rows.
func (s *cells) appendSlots(dst []any, h *xds.Heap[temporal.Time, int32]) []any {
	dst = reserve(dst, h.Len()*len(s.shape.cols))
	for _, slot := range h.All() {
		dst = append(dst, s.at(slot)...)
	}
	return dst
}

// load writes the pending value v, read back from a state, into slot's
// cells. v must be a row holding exactly the node's columns.
func (s *cells) load(slot int32, v any) error {
	m, ok := s.fields(v)
	if !ok || len(m) != len(s.shape.cols) {
		return fmt.Errorf("ops: pending result %v is not a row of the columns %q", v, s.shape.cols)
	}
	vals := s.at(slot)
	for i, c := range s.shape.cols {
		if vals[i], ok = m[c]; !ok {
			clear(vals)
			return fmt.Errorf("ops: pending row %v lacks the column %q", v, c)
		}
	}
	return nil
}

// bytes is what the chunks hold: 16 bytes a cell.
func (s *cells) bytes() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, ch := range s.chunks {
		n += len(ch)
	}
	return n * 16
}

// appendElems appends what appendElems appends for es whose values are
// rows of this shape, es[i]'s held in vals[i*w:(i+1)*w]: each value as
// the state codec writes the row, then the interval as
// wire.AppendElement does.
func (r *rowShape) appendElems(dst []byte, es []temporal.Element, vals []any) ([]byte, error) {
	w := len(r.cols)
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for i, e := range es {
		var err error
		if dst, err = wire.AppendFields(append(dst, r.tag), r.cols, vals[i*w:(i+1)*w]); err != nil {
			return dst, err
		}
		dst = binary.AppendVarint(binary.AppendVarint(dst, int64(e.Start)), int64(e.End))
	}
	return dst, nil
}
