// Package sweeparea implements PIPES' generic join framework: joins are
// parameterised by exchangeable status-aware data structures called
// SweepAreas [Cammert et al., XXL status report], which support efficient
// insertion, retrieval (probing with a query predicate) and reorganisation
// (purging entries whose validity interval can no longer overlap future
// probes). Three implementations with different retrieval structures are
// provided — insertion list, hash index and sorted (tree-like) index — so
// different join types (equi, band, theta) get appropriately tailored
// areas, and the framework doubles as an algorithmic testbed comparing
// them (experiment E5).
package sweeparea

import (
	"pipes/internal/temporal"
)

// Predicate decides whether a probing value matches a stored value. For a
// join, probe comes from the opposite input.
type Predicate func(probe, stored any) bool

// SweepArea is the status structure of one join input.
//
// The contract relies on the stream invariant (non-decreasing Start):
// after Reorganize(t), entries with End <= t are gone because no future
// probe interval can overlap them.
type SweepArea interface {
	// Insert stores e.
	Insert(e temporal.Element)
	// Probe calls emit for every stored element matching the probe value
	// under the area's predicate. Temporal overlap is NOT checked here —
	// the join operator intersects validity intervals itself.
	Probe(probe temporal.Element, emit func(stored temporal.Element))
	// Reorganize purges entries whose interval ends at or before t and
	// returns how many were removed.
	Reorganize(t temporal.Time) int
	// Shed removes up to n entries (those expiring soonest) to release
	// memory, returning how many were removed. Shedding trades answer
	// completeness for memory — the load-shedding hook of the memory
	// manager.
	Shed(n int) int
	// Len returns the number of stored entries.
	Len() int
	// MemoryUsage returns the approximate footprint in bytes.
	MemoryUsage() int
	// AppendItems appends every stored element to dst, in unspecified
	// order, and returns the extended slice. It copies the elements, so
	// the result never aliases the area's backing storage: the checkpoint
	// layer's copy-on-write captures (ops SnapshotState) append into
	// buffers they keep round after round, hold them across the barrier
	// and serialise them on the background writer, concurrent with
	// post-barrier Insert/Extract mutations. Checkpointing serialises
	// areas through it and restores them by re-Inserting — correct
	// because area semantics are insertion-order independent.
	AppendItems(dst []temporal.Element) []temporal.Element
}

// bytesPerEntry is the bookkeeping estimate for one stored element
// (interface header, interval, container overhead).
const bytesPerEntry = 64

// List is the baseline SweepArea: an insertion-ordered slice probed by a
// full scan with an arbitrary predicate. It supports any theta join.
type List struct {
	pred    Predicate
	entries []temporal.Element
}

// NewList returns a list area with the given match predicate. A nil
// predicate matches everything (cross product).
func NewList(pred Predicate) *List {
	if pred == nil {
		pred = func(_, _ any) bool { return true }
	}
	return &List{pred: pred}
}

// Insert implements SweepArea.
func (l *List) Insert(e temporal.Element) { l.entries = append(l.entries, e) }

// Probe implements SweepArea.
func (l *List) Probe(probe temporal.Element, emit func(temporal.Element)) {
	for _, s := range l.entries {
		if l.pred(probe.Value, s.Value) {
			emit(s)
		}
	}
}

// Reorganize implements SweepArea.
func (l *List) Reorganize(t temporal.Time) int {
	kept := l.entries[:0]
	removed := 0
	for _, s := range l.entries {
		if s.End <= t {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(l.entries); i++ {
		l.entries[i] = temporal.Element{} // release references
	}
	l.entries = kept
	return removed
}

// Shed implements SweepArea: removes the n entries expiring soonest.
func (l *List) Shed(n int) int {
	if n <= 0 || len(l.entries) == 0 {
		return 0
	}
	if n >= len(l.entries) {
		removed := len(l.entries)
		l.entries = l.entries[:0]
		return removed
	}
	// Select the n smallest End values (O(n·len) selection is fine: Shed
	// is rare and n is small relative to the area).
	for i := 0; i < n; i++ {
		minIdx := 0
		for j := 1; j < len(l.entries); j++ {
			if l.entries[j].End < l.entries[minIdx].End {
				minIdx = j
			}
		}
		last := len(l.entries) - 1
		l.entries[minIdx] = l.entries[last]
		l.entries[last] = temporal.Element{}
		l.entries = l.entries[:last]
	}
	return n
}

// AppendItems implements SweepArea.
func (l *List) AppendItems(dst []temporal.Element) []temporal.Element {
	return append(dst, l.entries...)
}

// Len implements SweepArea.
func (l *List) Len() int { return len(l.entries) }

// MemoryUsage implements SweepArea.
func (l *List) MemoryUsage() int { return len(l.entries) * bytesPerEntry }
