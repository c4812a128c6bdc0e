package ops

import (
	"maps"
	"testing"

	"pipes/internal/pubsub"
)

// rowBytes is what one free row holds in the memory manager's
// estimates: a cleared map of up to eight fields, its header and one
// slot group.
const rowBytes = 336

// rows is the free list of a node that builds its results in map-shaped
// rows and lends them (pubsub.SourceBase.Lend; SEMANTICS.md §3.7): the
// planner's π (Project) and γ (NewGroupInto). A row goes out with a
// frame and comes back, cleared, once a frame lent to a borrower (a
// terminal sink that does not declare pubsub.ValueKeeper) has been
// delivered; a row published while nobody borrows belongs to the
// subscribers and never comes back, so the next row is a new one. The
// list is the node's, guarded by its ProcMu: get runs in the node's
// body, put from its TransferBatch, settle also from its capture.
//
// In a test binary a row that comes back, or a held row once freed, is
// poisoned: cleared and holding only poisonField, which get removes
// again. A sink that keeps a lent row without declaring KeepsValues then
// finds the poison, or the row's next contents, instead of its fields,
// and fails its checksum or the differential instead of passing while
// the row happens not to be reused.
//
// γ's pending rows are checkpoint state, and the writer encodes a
// capture's image after the barrier, beside later processing. So a row
// that was pending at the latest capture never leaves while that image
// is out: the core releases a copy in a free row (swap) and the list
// holds the imaged row, untouched, until the writer hands the image
// back (settle). Every row a borrower returns is therefore free at once.
//
// The list keeps a row only while it holds fewer than pubsub.FrameCap
// rows more than the most the node has had pending or held at once. π
// has none and publishes frames of at most FrameCap rows, so one frame's
// worth covers its next frame. γ's rows are pending in its core until
// the holdback lets them go, and a stale group holds back every later
// span, so they come back in bursts of many frames, before the spans
// that reuse them are made: a frame's worth would drop most of a burst,
// and a bound that followed what is pending now would drop most of it
// once the burst drains, for the next burst to allocate again. Either
// way the free rows never outnumber the most rows the node has held as
// state by more than a frame, and they and the held rows count in its
// MemoryUsage.
type rows[M ~map[string]any] struct {
	free []M
	held []M      // imaged rows swapped out while their capture is out
	peak int      // the most rows γ has had pending or held at once
	core *ordered // γ's ordered core, nil for π
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
	if r.core != nil {
		r.settle()
		r.peak = max(r.peak, r.core.pending()+len(r.held)+1)
	}
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

// put takes back a row that was lent. No lent row is in an image still
// out (swap), so it is reused at once.
func (r *rows[M]) put(v any) {
	row := v.(M)
	r.keep(row)
	if poisonRows {
		row[poisonField] = "a lent row its lender took back"
	}
}

// keep clears row and adds it to the free list, unless the list is full.
func (r *rows[M]) keep(row M) {
	clear(row)
	if len(r.free) < pubsub.FrameCap+r.peak {
		r.free = append(r.free, row)
	}
}

// settle frees the held rows once the writer has handed their image
// back: at the next get, or at the next capture, whichever comes first,
// so the rows one image holds are freed before the next image holds any.
func (r *rows[M]) settle() {
	if len(r.held) == 0 || r.core.snaps.leased() {
		return
	}
	for _, row := range r.held {
		r.put(row)
	}
	r.held = cleared(r.held)
}

// swap returns a copy of v, a γ row in the image of a capture still
// out, in a row of the list's, and holds v as it is until the image
// comes back: the writer may still be encoding it.
func (r *rows[M]) swap(v any) any {
	row := r.get()
	maps.Copy(row, v.(M))
	r.held = append(r.held, v.(M))
	return row
}

// bytes is what the free and held rows hold.
func (r *rows[M]) bytes() int { return (len(r.free) + len(r.held)) * rowBytes }
