package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/telemetry/flight"
)

// idleQuantum is how long a worker parks when a pass over its own tasks
// and a steal scan made no progress. Live sources are polled, so an
// element arriving at an idle engine waits up to this long, plus the
// host's timer slack, to be picked up.
const idleQuantum = 50 * time.Microsecond

// Config parameterises a Scheduler.
type Config struct {
	// Workers is the number of layer-3 threads (default 1).
	Workers int
	// Strategy builds each worker's layer-2 strategy (default RoundRobin).
	Strategy Factory
	// BatchSize is the number of work units per activation (default 64).
	// Larger batches amortise scheduling overhead; smaller bound latency.
	BatchSize int
	// DisableStealing turns off work stealing: idle workers then park
	// instead of running ready tasks owned by other workers. Stealing is
	// on by default; single-owner activation locks keep it race-free.
	DisableStealing bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Strategy == nil {
		c.Strategy = RoundRobin()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// Scheduler runs registered tasks on a pool of worker threads (layer 3),
// each worker applying its own strategy instance (layer 2) over the tasks
// assigned to it. Tasks added before Start are spread round-robin across
// workers; AddTo pins a task to a specific worker for explicit placement.
//
// Concurrency model: every task carries an activation lock, so at most one
// worker executes a given task at any moment — operators activated by a
// task are therefore driven by a single thread at a time, and the direct
// publish-subscribe hand-off inside a virtual node never runs concurrently
// with itself. Idle workers steal batches from other workers' ready tasks
// (unless DisableStealing is set), which keeps pinned placements from
// serialising the whole graph. Contention is observable via Contention.
type Scheduler struct {
	cfg      Config
	mu       sync.Mutex
	tasks    [][]*trackedTask
	started  bool
	stop     chan struct{}
	wg       sync.WaitGroup
	nextW    int
	total    atomic.Int64 // registered tasks
	finished atomic.Int64 // tasks that reported done

	batches   atomic.Int64 // total batches executed across all workers
	steals    atomic.Int64 // batches run on tasks owned by another worker
	stealMiss atomic.Int64 // idle scans that found nothing to steal
	conflicts atomic.Int64 // activation-lock acquisition failures

	// stealRef records steal events into the flight ring (nil = detached).
	stealRef atomic.Pointer[flight.OpRef]
}

// SetFlightRecorder attaches the flight recorder (nil detaches): each
// successful steal lands a KindSteal event carrying thief and victim
// worker on the "sched" track.
func (s *Scheduler) SetFlightRecorder(r *flight.Recorder) {
	if r == nil {
		s.stealRef.Store(nil)
		return
	}
	s.stealRef.Store(r.Ref("sched"))
}

// New returns a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{
		cfg:   cfg,
		tasks: make([][]*trackedTask, cfg.Workers),
		stop:  make(chan struct{}),
	}
}

// Add registers a task, assigning it to the next worker round-robin.
// Tasks must be registered before Start; Add panics afterwards (the worker
// task lists are immutable while workers run).
func (s *Scheduler) Add(t Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("sched: Add after Start (register all tasks before starting the workers)")
	}
	s.tasks[s.nextW] = append(s.tasks[s.nextW], &trackedTask{Task: t})
	s.nextW = (s.nextW + 1) % s.cfg.Workers
	s.total.Add(1)
}

// AddTo registers a task on a specific worker (layer-3 placement). Like
// Add, it panics after Start.
func (s *Scheduler) AddTo(worker int, t Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("sched: AddTo after Start (register all tasks before starting the workers)")
	}
	s.tasks[worker%s.cfg.Workers] = append(s.tasks[worker%s.cfg.Workers], &trackedTask{Task: t})
	s.total.Add(1)
}

// Start launches the workers. Tasks must not be added afterwards.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.runWorker(w)
	}
}

// runTask runs one batch of t if its activation lock is free and reports
// whether that made progress: elements moved, or the task finished. A
// batch that ran without either — the empty poll of an idle live source —
// is not progress; the strategy pick, the own-task sweep and a steal all
// go by this one definition, so a worker with nothing to move reaches the
// idle park whoever owns the idle source.
func (s *Scheduler) runTask(t *trackedTask, batch int, stolen bool) (progress bool) {
	if t.isDone() {
		return false
	}
	if !t.tryAcquire() {
		s.conflicts.Add(1)
		return false
	}
	defer t.release()
	if t.isDone() {
		return false
	}
	n, fin := t.RunBatch(batch)
	s.batches.Add(1)
	progress = n > 0 || fin
	t.observe(n, stolen && progress)
	if fin && t.markDone() {
		s.finished.Add(1)
	}
	return progress
}

func (s *Scheduler) runWorker(w int) {
	defer s.wg.Done()
	strategy := s.cfg.Strategy()
	// Task lists are sealed at Start (Add panics afterwards), so reading
	// them without the mutex is safe.
	mine := s.tasks[w]
	raw := make([]Task, len(mine))
	for i, t := range mine {
		raw[i] = t
	}
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.finished.Load() >= s.total.Load() {
			return // every task of every worker is done
		}
		if len(raw) > 0 {
			if idx := strategy.Next(raw); idx >= 0 {
				if s.runTask(mine[idx], s.cfg.BatchSize, false) {
					continue
				}
				// Lost the task to a stealing worker, or it had nothing
				// ready (an idle live source); fall through.
			}
		}
		// Nothing ready locally. Sweep own tasks once: a task whose
		// upstream completed while its backlog reads 0 still needs a final
		// batch to detect completion and propagate done.
		progressed := false
		for _, t := range mine {
			if s.runTask(t, s.cfg.BatchSize, false) {
				progressed = true
			}
		}
		if progressed {
			continue
		}
		if !s.cfg.DisableStealing && len(s.tasks) > 1 {
			if s.trySteal(w) {
				continue
			}
			s.stealMiss.Add(1)
		}
		time.Sleep(idleQuantum)
	}
}

// trySteal scans the other workers' tasks for ready work and runs one
// batch of each until one makes progress: that batch is the steal, and it
// is counted and recorded. A task that reports backlog but moves nothing
// (an idle live source) is passed over.
func (s *Scheduler) trySteal(w int) bool {
	workers := len(s.tasks)
	for off := 1; off < workers; off++ {
		victim := (w + off) % workers
		for _, t := range s.tasks[victim] {
			if t.isDone() || t.Backlog() == 0 {
				continue
			}
			if s.runTask(t, s.cfg.BatchSize, true) {
				s.steals.Add(1)
				if ref := s.stealRef.Load(); ref != nil {
					ref.Phase(flight.KindSteal, int64(w), int64(victim), 0)
				}
				return true
			}
		}
	}
	return false
}

// Wait blocks until every task has finished.
func (s *Scheduler) Wait() { s.wg.Wait() }

// Stop aborts the workers without waiting for task completion.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a snapshot of per-task progress, workers concatenated.
func (s *Scheduler) Stats() []TaskStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TaskStats
	for _, ts := range s.tasks {
		for _, t := range ts {
			out = append(out, t.stats())
		}
	}
	return out
}

// Contention is an aggregate snapshot of the scheduler's synchronization
// counters — the one read of them, in process and for the pipes_sched_*
// scrape series.
type Contention struct {
	// Batches counts task batches executed across all workers.
	Batches int64
	// Steals counts batches an idle worker ran on another worker's task.
	Steals int64
	// StealMisses counts idle scans that found no stealable work.
	StealMisses int64
	// LockConflicts counts failed task activation-lock acquisitions
	// (two workers picking the same task at the same moment).
	LockConflicts int64
}

// Contention returns the current contention counter values.
func (s *Scheduler) Contention() Contention {
	return Contention{
		Batches:       s.batches.Load(),
		Steals:        s.steals.Load(),
		StealMisses:   s.stealMiss.Load(),
		LockConflicts: s.conflicts.Load(),
	}
}
