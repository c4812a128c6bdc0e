package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// Sequencer repairs bounded disorder at the edge of the graph: autonomous
// sources (sensors, network feeds) may deliver elements slightly out of
// timestamp order, but every operator relies on the non-decreasing-Start
// invariant. The sequencer buffers arrivals and releases them in Start
// order once the high-water mark has advanced past them by `slack`;
// elements arriving later than that (below the already-released
// watermark) are dropped and counted. Place it between a raw source and
// the first operator.
type Sequencer struct {
	pubsub.PipeBase
	slack    temporal.Time
	buf      *xds.Heap[temporal.Element]
	maxSeen  temporal.Time
	released temporal.Time
	late     int64
	seeded   bool
}

// NewSequencer returns a sequencer tolerating disorder up to slack
// timestamp units (slack >= 0; 0 admits only already-ordered input).
func NewSequencer(name string, slack temporal.Time) *Sequencer {
	if slack < 0 {
		panic("ops: sequencer slack must be non-negative")
	}
	s := &Sequencer{
		PipeBase: pubsub.NewPipeBase(name, 1),
		slack:    slack,
		buf:      xds.NewHeap[temporal.Element](func(a, b temporal.Element) bool { return a.Start < b.Start }),
		released: temporal.MinTime,
	}
	s.OnAllDone = func() {
		for {
			e, ok := s.buf.Pop()
			if !ok {
				return
			}
			s.Emit(e)
		}
	}
	return s
}

// ProcessBatch implements pubsub.BatchSink.
func (s *Sequencer) ProcessBatch(b temporal.Batch, _ int) {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	for _, e := range b {
		s.processOne(e)
	}
	s.Flush()
}

// processOne is the per-element body, under ProcMu.
func (s *Sequencer) processOne(e temporal.Element) {
	if s.seeded && e.Start < s.released {
		s.late++ // too late: releasing it would violate the invariant
		return
	}
	s.buf.Push(e)
	if !s.seeded || e.Start > s.maxSeen {
		s.maxSeen = e.Start
		s.seeded = true
	}
	bound := s.maxSeen - s.slack
	for {
		top, ok := s.buf.Peek()
		if !ok || top.Start > bound {
			return
		}
		s.buf.Pop()
		if top.Start > s.released {
			s.released = top.Start
		}
		s.Emit(top)
	}
}

// LateDrops returns how many elements arrived beyond the slack and were
// dropped.
func (s *Sequencer) LateDrops() int64 {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	return s.late
}

// Buffered returns the number of elements currently held back.
func (s *Sequencer) Buffered() int {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	return s.buf.Len()
}

// MemoryUsage implements the metadata/memory reporter.
func (s *Sequencer) MemoryUsage() int { return s.Buffered() * 64 }
