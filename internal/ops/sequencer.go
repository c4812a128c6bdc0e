package ops

import "pipes/internal/temporal"

// Sequencer repairs bounded disorder at the edge of the graph: autonomous
// sources (sensors, network feeds) may deliver elements slightly out of
// timestamp order, but every operator relies on the non-decreasing-Start
// invariant. The sequencer is the ordered core's one-input case: it
// buffers arrivals and releases them in Start order once the input's
// watermark (the highest Start seen) has advanced past them by `slack`.
// Elements arriving below the start the core released last are dropped
// and counted. Place it between a raw source and the first operator.
type Sequencer struct {
	ordered
	slack temporal.Time
	late  int64
}

// NewSequencer returns a sequencer tolerating disorder up to slack
// timestamp units (slack >= 0; 0 admits only already-ordered input).
func NewSequencer(name string, slack temporal.Time) *Sequencer {
	if slack < 0 {
		panic("ops: sequencer slack must be non-negative")
	}
	s := &Sequencer{slack: slack}
	s.init(name, 1, s.processOne, nil, lateDrops{s})
	s.hold = func() temporal.Time {
		if s.wm < temporal.MinTime+s.slack {
			return temporal.MinTime
		}
		return s.wm - s.slack
	}
	return s
}

// processOne is the per-element body, under ProcMu.
func (s *Sequencer) processOne(_ int, e temporal.Element) {
	if e.Start < s.released {
		s.late++ // too late: releasing it would violate the invariant
		return
	}
	s.add(e)
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
	return s.buffered()
}
