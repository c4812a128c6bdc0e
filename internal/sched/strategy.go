package sched

import "math/rand"

// Strategy selects, within one worker thread, which ready task runs next —
// layer 2 of the scheduling framework. Next receives the worker's tasks
// and returns the index of the task to run, or -1 if none has work.
// Strategies are single-worker state machines; the scheduler creates one
// instance per worker via a Factory.
type Strategy interface {
	Name() string
	Next(tasks []Task) int
}

// Factory builds a fresh strategy instance (one per worker).
type Factory func() Strategy

// roundRobin cycles fairly through ready tasks.
type roundRobin struct{ cur int }

// RoundRobin returns the fair cyclic strategy.
func RoundRobin() Factory { return func() Strategy { return &roundRobin{} } }

func (*roundRobin) Name() string { return "round-robin" }

func (s *roundRobin) Next(tasks []Task) int {
	n := len(tasks)
	for i := 1; i <= n; i++ {
		idx := (s.cur + i) % n
		if tasks[idx].Backlog() > 0 {
			s.cur = idx
			return idx
		}
	}
	return -1
}

// fifoOrder always runs the first ready task in fixed (registration)
// order — the static-priority discipline of single-threaded engines
// [14,15]: upstream tasks registered first are drained first.
type fifoOrder struct{}

// FIFO returns the fixed-order strategy.
func FIFO() Factory { return func() Strategy { return fifoOrder{} } }

func (fifoOrder) Name() string { return "fifo" }

func (fifoOrder) Next(tasks []Task) int {
	for i, t := range tasks {
		if t.Backlog() > 0 {
			return i
		}
	}
	return -1
}

// random picks a uniformly random ready task — the baseline of scheduling
// comparisons.
type random struct{ rng *rand.Rand }

// Random returns the randomized strategy with a fixed seed per worker.
func Random(seed int64) Factory {
	return func() Strategy { return &random{rng: rand.New(rand.NewSource(seed))} }
}

func (*random) Name() string { return "random" }

// Next keeps the k-th ready task it meets with probability 1/k (reservoir
// sampling), so one pass picks uniformly without collecting the ready set.
func (s *random) Next(tasks []Task) int {
	best, ready := -1, 0
	for i, t := range tasks {
		if t.Backlog() == 0 {
			continue
		}
		if ready++; s.rng.Intn(ready) == 0 {
			best = i
		}
	}
	return best
}

// profileEvery is how many picks a profiled strategy makes on one reading
// of its tasks' profiles: a reading walks every task's virtual node, a
// pick only compares the cached priorities.
const profileEvery = 16

// profiled is the pick loop Chain and rate-based scheduling share: run the
// ready task of highest priority, a function of the task's measured
// selectivity and cost (Profiled).
type profiled struct {
	name  string
	prio  func(sel, cost float64) float64
	cache []float64 // priority per task, read every profileEvery picks
	picks int
}

func (s *profiled) Name() string { return s.name }

func (s *profiled) Next(tasks []Task) int {
	if s.picks%profileEvery == 0 || len(s.cache) != len(tasks) {
		if cap(s.cache) < len(tasks) {
			s.cache = make([]float64, len(tasks))
		}
		s.cache = s.cache[:len(tasks)]
		for i, t := range tasks {
			sel, cost := 1.0, 1.0
			if p, ok := t.(Profiled); ok {
				sel, cost = p.Profile()
			}
			s.cache[i] = s.prio(sel, cost)
		}
	}
	s.picks++
	best := -1
	for i, t := range tasks {
		if t.Backlog() > 0 && (best < 0 || s.cache[i] > s.cache[best]) {
			best = i
		}
	}
	return best
}

// Chain returns Chain scheduling [Babcock et al., 4]: run the ready task
// with the steepest drop in expected queue memory per unit cost, i.e. the
// greatest (1 − selectivity)/cost. Chain provably minimises total queue
// memory for single-stream plans.
func Chain() Factory {
	return func() Strategy {
		return &profiled{name: "chain", prio: func(sel, cost float64) float64 { return (1 - sel) / cost }}
	}
}

// RateBased returns rate-based scheduling [Carney et al., 9]: run the ready
// task with the greatest output rate per unit cost, selectivity/cost — the
// dual of Chain, minimising result latency.
func RateBased() Factory {
	return func() Strategy {
		return &profiled{name: "rate", prio: func(sel, cost float64) float64 { return sel / cost }}
	}
}

// highestBacklog runs the task with the longest queue — a latency bound
// under bursts (no queue grows unobserved).
type highestBacklog struct{}

// HighestBacklog returns the longest-queue-first strategy.
func HighestBacklog() Factory { return func() Strategy { return highestBacklog{} } }

func (highestBacklog) Name() string { return "backlog" }

func (highestBacklog) Next(tasks []Task) int {
	best, bestB := -1, 0
	for i, t := range tasks {
		if b := t.Backlog(); b > bestB {
			best, bestB = i, b
		}
	}
	return best
}
