// Package archive provides the explicit materialization PIPES reserves
// for historical queries: a time-partitioned in-memory store fed by
// subscribing it to any point of a running query graph, queried
// demand-driven through the cursor algebra (the stand-in for XXL's index
// structures and their bulk operations). Archives bridge the live and the
// historical world in both directions — a stream can be archived while it
// flows, and an archived range can be replayed into a fresh graph.
package archive

import (
	"slices"
	"sync"

	"pipes/internal/cursor"
	"pipes/internal/pubsub"
	"pipes/internal/snapshot"
	"pipes/internal/temporal"
)

// Archive is a time-partitioned element store. It implements pubsub.Sink,
// so subscribing it to a source persists that stream.
type Archive struct {
	name    string
	granule temporal.Time

	mu      sync.RWMutex
	buckets map[int64][]temporal.Element
	minB    int64
	maxB    int64
	count   int
	maxDur  temporal.Time // longest bounded validity seen (bounds range scans)
	openEnd bool          // an element with unbounded validity was stored
	done    bool
}

// New returns an archive partitioning elements by Start into buckets of
// the given positive granule.
func New(name string, granule temporal.Time) *Archive {
	if granule <= 0 {
		panic("archive: granule must be positive")
	}
	return &Archive{
		name:    name,
		granule: granule,
		buckets: map[int64][]temporal.Element{},
		minB:    1<<63 - 1,
		maxB:    -(1 << 63),
	}
}

// Name implements pubsub.Node.
func (a *Archive) Name() string { return a.name }

// Process implements pubsub.Sink: stores the element.
func (a *Archive) Process(e temporal.Element, _ int) {
	b := a.bucketOf(e.Start)
	a.mu.Lock()
	a.buckets[b] = append(a.buckets[b], e)
	if b < a.minB {
		a.minB = b
	}
	if b > a.maxB {
		a.maxB = b
	}
	a.count++
	if e.End == temporal.MaxTime {
		a.openEnd = true
	} else if d := e.Duration(); d > a.maxDur {
		a.maxDur = d
	}
	a.mu.Unlock()
}

// Done implements pubsub.Sink.
func (a *Archive) Done(_ int) {
	a.mu.Lock()
	a.done = true
	a.mu.Unlock()
}

// Closed reports whether the archived stream has signalled done.
func (a *Archive) Closed() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.done
}

// Len returns the number of archived elements.
func (a *Archive) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.count
}

// MemoryUsage implements the metadata/memory reporter.
func (a *Archive) MemoryUsage() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.count*64 + len(a.buckets)*48
}

func (a *Archive) bucketOf(t temporal.Time) int64 {
	q := int64(t) / int64(a.granule)
	if int64(t)%int64(a.granule) != 0 && t < 0 {
		q--
	}
	return q
}

// Range returns a cursor over the archived elements whose validity
// overlaps iv, in Start order.
func (a *Archive) Range(iv temporal.Interval) cursor.Cursor {
	es := a.overlapping(iv)
	out := make([]any, len(es))
	for i, e := range es {
		out[i] = e
	}
	return cursor.FromSlice(out)
}

// overlapping copies out the archived elements whose validity overlaps
// iv, in Start order, under the read lock.
func (a *Archive) overlapping(iv temporal.Interval) []temporal.Element {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.count == 0 || !iv.Valid() {
		return nil
	}
	// Elements overlapping iv start no earlier than iv.Start − longest
	// duration (unless unbounded elements exist — then scan from the
	// first bucket).
	from := a.minB
	if !a.openEnd {
		lo := iv.Start - a.maxDur
		if lo > iv.Start { // underflow near MinTime: no lower cutoff
			lo = temporal.MinTime
		}
		if b := a.bucketOf(lo); b > from {
			from = b
		}
	}
	to := a.bucketOf(iv.End - 1)
	if to > a.maxB {
		to = a.maxB
	}
	// Iterate the buckets that exist, not every index in [from, to] — the
	// span can be astronomically sparse (e.g. a full-range replay of an
	// archive holding elements near MinTime).
	keys := make([]int64, 0, len(a.buckets))
	for b := range a.buckets {
		if b >= from && b <= to {
			keys = append(keys, b)
		}
	}
	slices.Sort(keys)
	n := 0
	for _, b := range keys {
		n += len(a.buckets[b])
	}
	out := make([]temporal.Element, 0, n) // at most every selected element: one copy, never regrown
	for _, b := range keys {
		for _, e := range a.buckets[b] {
			if e.Overlaps(iv) {
				out = append(out, e)
			}
		}
	}
	return out
}

// Snapshot returns the multiset of values valid at instant t — the
// historical-query primitive.
func (a *Archive) Snapshot(t temporal.Time) []any {
	return snapshot.At(a.overlapping(temporal.NewInterval(t, t+1)), t)
}

// Replay returns an emitter re-publishing the archived elements whose
// validity overlaps iv into a live graph, in Start order — historical
// data re-entering data-driven processing.
func (a *Archive) Replay(name string, iv temporal.Interval) pubsub.Emitter {
	return pubsub.NewSliceSource(name, a.overlapping(iv))
}

// ReplayFrom returns an emitter re-publishing every archived element
// except the first offset ones, in Start order. Because an archive
// subscribed at a source records elements in arrival order — which the
// stream invariant makes Start order — skipping offset elements resumes
// the stream exactly where a recorded per-source checkpoint offset left
// it. Recovery (internal/ft) uses this as the replay source. The elements
// are copied once, unboxed, into a copy sized up front; the first offset
// of them are skipped by slicing and the rest published as views of it.
func (a *Archive) ReplayFrom(name string, offset int) pubsub.Emitter {
	es := a.overlapping(temporal.NewInterval(temporal.MinTime, temporal.MaxTime))
	return pubsub.NewSliceSource(name, es[min(max(offset, 0), len(es)):])
}

// Vacuum drops every element whose validity ended at or before t and
// returns how many were removed — retention management for long-running
// archives.
func (a *Archive) Vacuum(t temporal.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	removed := 0
	for b, elems := range a.buckets {
		kept := elems[:0]
		for _, e := range elems {
			if e.End <= t {
				removed++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(a.buckets, b)
			continue
		}
		a.buckets[b] = kept
	}
	a.count -= removed
	return removed
}
