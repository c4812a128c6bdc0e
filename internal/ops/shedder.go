package ops

import (
	"math/rand"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// Shedder is the random load-shedding operator ("drop box" in Aurora's
// terms [8]): it forwards each element with probability 1−p, where the
// drop probability p is adjustable at runtime. Placing shedders at
// selected edges lets an overload policy trade answer accuracy for
// throughput without touching operator state — the complement of the
// memory manager's state shedding.
type Shedder struct {
	pubsub.PipeBase
	rng     *rand.Rand
	prob    float64
	dropped int64
	seen    int64
}

// NewShedder returns a shedder with drop probability 0 (pass-through)
// and a deterministic random source per seed.
func NewShedder(name string, seed int64) *Shedder {
	return &Shedder{
		PipeBase: pubsub.NewPipeBase(name, 1),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// SetDropProbability sets p ∈ [0,1]; out-of-range values are clamped.
func (s *Shedder) SetDropProbability(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.ProcMu.Lock()
	s.prob = p
	s.ProcMu.Unlock()
}

// DropProbability returns the current p.
func (s *Shedder) DropProbability() float64 {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	return s.prob
}

// ProcessBatch implements pubsub.BatchSink.
func (s *Shedder) ProcessBatch(b temporal.Batch, _ int) {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	for _, e := range b {
		s.seen++
		if s.prob > 0 && s.rng.Float64() < s.prob {
			s.dropped++
			continue
		}
		s.Emit(e)
	}
	s.Flush()
}

// Dropped returns how many elements were shed.
func (s *Shedder) Dropped() int64 {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	return s.dropped
}

// Seen returns how many elements arrived.
func (s *Shedder) Seen() int64 {
	s.ProcMu.Lock()
	defer s.ProcMu.Unlock()
	return s.seen
}
