package sched

import (
	"context"
	"sync"
	"sync/atomic"

	"pipes/internal/telemetry/flight"
)

// Config parameterises a Scheduler.
type Config struct {
	// Workers is the number of layer-3 threads (default 1).
	Workers int
	// Strategy builds each worker's layer-2 strategy (default RoundRobin).
	Strategy Factory
	// BatchSize is the number of work units per activation (default 64).
	// Larger batches amortise scheduling overhead; smaller bound latency.
	BatchSize int
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
// An autonomous source gets a thread of its own instead (Go): it pushes
// into the graph when its input arrives, and nothing polls it.
//
// Concurrency model: every task carries an activation lock, so at most one
// worker executes a given task at any moment — operators activated by a
// task are therefore driven by a single thread at a time, and the direct
// publish-subscribe hand-off inside a virtual node never runs concurrently
// with itself. Idle workers steal batches from other workers' ready tasks,
// which keeps pinned placements from serialising the whole graph. A worker
// with nothing to run or steal parks until it is woken: by a boundary
// buffer receiving work, by a task released with backlog left, or by the
// last task finishing. Contention is observable via Contention.
type Scheduler struct {
	cfg      Config
	mu       sync.Mutex
	tasks    [][]*trackedTask
	runs     []func(context.Context) error // autonomous sources' threads, started at Start
	started  bool
	ctx      context.Context // cancelled by Stop
	cancel   context.CancelFunc
	wake     chan struct{} // wake-up tokens: one per worker that can park, so none is lost while all are parked
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
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{
		cfg:    cfg,
		tasks:  make([][]*trackedTask, cfg.Workers),
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, cfg.Workers),
	}
}

// Add registers a task, assigning it to the next worker round-robin.
// Tasks must be registered before Start; Add panics afterwards (the worker
// task lists are immutable while workers run).
func (s *Scheduler) Add(t Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add("Add", s.nextW, t)
	s.nextW = (s.nextW + 1) % s.cfg.Workers
}

// AddTo registers a task on a specific worker (layer-3 placement). Like
// Add, it panics after Start.
func (s *Scheduler) AddTo(worker int, t Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add("AddTo", worker%s.cfg.Workers, t)
}

// add registers t on worker w; callers hold mu. A task that can announce
// new work (BufferTask) gets the workers' wake-up as its hook.
func (s *Scheduler) add(op string, w int, t Task) {
	s.sealed(op)
	if r, ok := t.(interface{ SetReady(func()) }); ok {
		r.SetReady(s.signal)
	}
	s.tasks[w] = append(s.tasks[w], &trackedTask{Task: t})
	s.total.Add(1)
}

// sealed panics once the workers run; callers hold mu.
func (s *Scheduler) sealed(op string) {
	if s.started {
		panic("sched: " + op + " after Start (register all tasks before starting the workers)")
	}
}

// Go registers fn as an autonomous source's own thread (ChanSource.Run):
// Start runs it on a goroutine of its own, Stop cancels its context and
// Wait waits for it to return. Its error is dropped: ChanSource.Run
// returns only ctx's cancellation. Like Add, Go panics after Start.
func (s *Scheduler) Go(fn func(ctx context.Context) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed("Go")
	s.runs = append(s.runs, fn)
}

// Start launches the workers and the autonomous sources' threads. Tasks
// must not be added afterwards.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for _, fn := range s.runs {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = fn(s.ctx)
		}()
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.runWorker(w)
	}
}

// signal wakes one parked worker, or leaves a token for the next worker
// to park; with Workers tokens pending it does nothing. It never blocks.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runTask runs one batch of t if its activation lock is free and reports
// whether that made progress: elements moved, or the task finished. A
// batch that ran without either — a poll that found nothing ready — is
// not progress; the strategy pick, the own-task sweep and a steal all go
// by this one definition, so a worker with nothing to move parks.
func (s *Scheduler) runTask(t *trackedTask, batch int, stolen bool) (progress bool) {
	if t.isDone() {
		return false
	}
	if !t.tryAcquire() {
		s.conflicts.Add(1)
		return false
	}
	if t.isDone() {
		t.release()
		return false
	}
	n, fin := t.RunBatch(batch)
	s.batches.Add(1)
	progress = n > 0 || fin
	if fin && t.markDone() {
		s.finished.Add(1)
	}
	t.release()
	// The backlog is read after the release: a worker woken by work that
	// arrived during this batch lost the activation lock to it and may have
	// parked meanwhile, so whatever is left is handed on.
	if t.observe(n, stolen && progress) > 0 {
		s.signal()
	}
	return progress
}

func (s *Scheduler) runWorker(w int) {
	defer s.wg.Done()
	strategy := s.cfg.Strategy()
	stop := s.ctx.Done()
	// Task lists are sealed at Start (Add panics afterwards), so reading
	// them without the mutex is safe.
	mine := s.tasks[w]
	raw := make([]Task, len(mine))
	for i, t := range mine {
		raw[i] = t
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if s.finished.Load() >= s.total.Load() {
			s.signal() // every task is done: pass that on to a parked worker
			return
		}
		if idx := strategy.Next(raw); idx >= 0 && s.runTask(mine[idx], s.cfg.BatchSize, false) {
			continue
		}
		// Nothing ready locally, or the pick was lost to a stealing worker
		// or found nothing. Sweep own tasks once: a task can need a batch
		// its backlog does not show (a poll emitter after an empty poll).
		progressed := false
		for _, t := range mine {
			if s.runTask(t, s.cfg.BatchSize, false) {
				progressed = true
			}
		}
		if progressed {
			continue
		}
		if len(s.tasks) > 1 {
			if s.trySteal(w) {
				continue
			}
			s.stealMiss.Add(1)
		}
		select {
		case <-s.wake:
		case <-stop:
			return
		}
	}
}

// trySteal scans the other workers' tasks for ready work and runs one
// batch of each until one makes progress: that batch is the steal, and it
// is counted and recorded. A task that reports backlog but moves nothing
// (a poll emitter before its first empty poll) is passed over.
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

// Wait blocks until every task has finished and every autonomous source's
// thread has returned.
func (s *Scheduler) Wait() { s.wg.Wait() }

// Stop aborts the workers without waiting for task completion, cancels
// the autonomous sources' threads and waits for all of them to exit.
func (s *Scheduler) Stop() {
	s.cancel()
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
