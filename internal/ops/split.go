package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// Split is the inverse of Coalesce: it chops each element's validity
// interval at fixed granule boundaries, emitting one element per covered
// granule fragment. Splitting aligns element validity to a common grid so
// that downstream granule-wise evaluation (tumbling reports, historical
// bulk loads) sees uniform pieces.
type Split struct {
	ordered
	granule temporal.Time
}

// NewSplit returns a splitter with the given positive granule.
func NewSplit(name string, granule temporal.Time) *Split {
	if granule <= 0 {
		panic("ops: split granule must be positive")
	}
	s := &Split{granule: granule}
	s.init(name, 1, s.processOne, nil, nil)
	return s
}

// processOne is the per-element body, under ProcMu.
func (s *Split) processOne(_ int, e temporal.Element) {
	cur := e.Start
	for cur < e.End {
		next := (floorDiv(cur, s.granule) + 1) * s.granule
		if next > e.End || next < cur { // clamp tail and MaxTime overflow
			next = e.End
		}
		s.add(e.WithInterval(temporal.NewInterval(cur, next)))
		cur = next
	}
}

// Sample materialises periodic snapshots (CQL RSTREAM with a SLIDE): at
// every boundary b = k·every it emits each value of the current snapshot
// as an element valid [b, b+every). Boundary b is closed as soon as an
// element with Start > b arrives (or the stream ends), so output order is
// by construction non-decreasing.
//
// Elements with unbounded validity keep the sampler emitting only up to
// the last finite boundary observed at end-of-stream.
type Sample struct {
	pubsub.PipeBase
	parts
	every  temporal.Time
	elems  xds.Slab[temporal.Element]     // the live elements
	active xds.Heap[temporal.Time, int32] // their slots, by End
	nextB  temporal.Time
	seeded bool
}

// NewSample returns a periodic snapshot sampler with positive period.
func NewSample(name string, every temporal.Time) *Sample {
	if every <= 0 {
		panic("ops: sample period must be positive")
	}
	s := &Sample{
		PipeBase: pubsub.NewPipeBase(name, 1),
		every:    every,
	}
	s.declare(&s.ProcMu, sampler{s})
	s.OnAllDone = s.finish
	return s
}

// ProcessBatch implements pubsub.BatchSink.
func (s *Sample) ProcessBatch(b temporal.Batch, _ int) {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	for _, e := range b {
		if !s.seeded {
			s.nextB = floorDiv(e.Start, s.every) * s.every
			if s.nextB < e.Start {
				s.nextB += s.every
			}
			s.seeded = true
		}
		// Emit all boundaries strictly before the new element's start: no
		// further element can contribute to them.
		s.emitBoundaries(e.Start)
		s.active.Push(e.End, s.elems.Put(e))
	}
	s.Flush()
}

// emitBoundaries emits every due boundary strictly below limit.
func (s *Sample) emitBoundaries(limit temporal.Time) {
	for s.nextB < limit {
		b := s.nextB
		// Purge expired, then emit the snapshot at b.
		for {
			end, slot, ok := s.active.Peek()
			if !ok || end > b {
				break
			}
			s.active.Pop()
			s.elems.Take(slot)
		}
		for _, slot := range s.active.All() {
			if e := s.elems.At(slot); e.Start <= b {
				s.Emit(e.WithInterval(temporal.NewInterval(b, b+s.every)))
			}
		}
		s.nextB += s.every
	}
}

func (s *Sample) finish() {
	// Drain boundaries covered by bounded elements; unbounded elements
	// would otherwise keep the sampler alive forever.
	maxEnd := temporal.MinTime
	for end := range s.active.All() {
		if end != temporal.MaxTime && end > maxEnd {
			maxEnd = end
		}
	}
	if maxEnd > temporal.MinTime {
		s.emitBoundaries(maxEnd)
	}
}
