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
// body, put from its TransferBatch.
//
// In a test binary a row that comes back is poisoned: cleared and
// holding only poisonField, which get removes again. A sink that keeps
// a lent row without declaring KeepsValues then finds the poison, or the
// row's next contents, instead of its fields, and fails its checksum or
// the differential instead of passing while the row happens not to be
// reused.
//
// The list keeps a row only while it holds fewer than pubsub.FrameCap
// rows more than the node has pending. π has none pending and publishes
// frames of at most FrameCap rows, so one frame's worth covers its next
// frame. γ's rows are pending in its core until the holdback lets them
// go, and a stale group holds back every later span, so they come back
// in bursts of many frames, before the spans that reuse them are made:
// a frame's worth would drop most of a burst. Either way the free rows
// never outnumber the most rows the node has held as state by more than
// a frame, and they count in its MemoryUsage.
type rows[M ~map[string]any] struct {
	free []M
	// core is γ's ordered core, nil for π. Its pending rows are
	// checkpoint state: while a capture image of the node is out, the
	// writer may still encode a row the node has published since, so
	// the rows that come back are dropped.
	core *ordered
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

// put takes back a row that was lent, unless a capture is out: then the
// writer may still be encoding it, so it is left as it is.
func (r *rows[M]) put(v any) {
	if r.core != nil && r.core.snaps.leased() {
		return
	}
	row := v.(M)
	r.keep(row)
	if poisonRows {
		row[poisonField] = "a lent row its lender took back"
	}
}

// keep clears row and adds it to the free list, unless the list is full.
func (r *rows[M]) keep(row M) {
	clear(row)
	limit := pubsub.FrameCap
	if r.core != nil {
		limit += r.core.pending()
	}
	if len(r.free) < limit {
		r.free = append(r.free, row)
	}
}

// bytes is what the free rows hold.
func (r *rows[M]) bytes() int { return len(r.free) * rowBytes }
