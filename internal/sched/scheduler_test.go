package sched

// Scheduler-level properties: liveness (every registered task eventually
// runs to completion under every strategy and worker count), clean
// shutdown while workers are busy, the sealed-registration contract, and
// work stealing with its contention counters.

import (
	"sync/atomic"
	"testing"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

func TestEveryTaskEventuallyRuns(t *testing.T) {
	strategies := []struct {
		name string
		mk   Factory
	}{
		{"round-robin", RoundRobin()},
		{"fifo", FIFO()},
		{"random", Random(42)},
		{"chain", Chain()},
		{"rate", RateBased()},
		{"backlog", HighestBacklog()},
	}
	for _, st := range strategies {
		for _, workers := range []int{1, 2, 8} {
			const chains = 10
			cols := make([]*pubsub.Collector, chains)
			s := New(Config{Workers: workers, Strategy: st.mk, BatchSize: 8})
			for i := 0; i < chains; i++ {
				emit, buf, col := buildChain(200)
				cols[i] = col
				s.Add(emit)
				s.Add(buf)
			}
			s.Start()
			s.Wait()
			for i, col := range cols {
				col.Wait()
				if col.Len() != 100 {
					t.Fatalf("%s workers=%d: chain %d collected %d, want 100", st.name, workers, i, col.Len())
				}
			}
			for _, stat := range s.Stats() {
				if !stat.Done {
					t.Fatalf("%s workers=%d: task %s never finished", st.name, workers, stat.Name)
				}
				if stat.Processed == 0 {
					t.Fatalf("%s workers=%d: task %s finished without running", st.name, workers, stat.Name)
				}
			}
		}
	}
}

func TestShutdownWhileBusy(t *testing.T) {
	// Several never-ending emitters keep all workers busy; Stop must
	// still terminate promptly and leave the counters consistent.
	for _, workers := range []int{1, 2, 8} {
		s := New(Config{Workers: workers})
		var emitted atomic.Int64
		for i := 0; i < workers*2; i++ {
			src := pubsub.NewFuncSource("inf", func() (temporal.Element, bool) {
				n := emitted.Add(1)
				return temporal.At(int(n), temporal.Time(n)), true
			})
			src.Subscribe(pubsub.NewCounter("ctr", 1), 0)
			s.Add(NewEmitterTask(src))
		}
		s.Start()
		for emitted.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		stopped := make(chan struct{})
		go func() { s.Stop(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: Stop did not terminate busy workers", workers)
		}
	}
}

func TestAddAfterStartPanics(t *testing.T) {
	for _, add := range []struct {
		name string
		fn   func(s *Scheduler, task Task)
	}{
		{"Add", func(s *Scheduler, task Task) { s.Add(task) }},
		{"AddTo", func(s *Scheduler, task Task) { s.AddTo(0, task) }},
	} {
		t.Run(add.name, func(t *testing.T) {
			emit, buf, _ := buildChain(10)
			s := New(Config{Workers: 1})
			s.Add(emit)
			s.Add(buf)
			s.Start()
			defer s.Wait()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Start did not panic", add.name)
				}
			}()
			late, _, _ := buildChain(10)
			add.fn(s, late)
		})
	}
}

// blockerTask holds its worker hostage until released, then finishes.
type blockerTask struct {
	release chan struct{}
	done    atomic.Bool
}

func (b *blockerTask) Name() string { return "blocker" }

func (b *blockerTask) RunBatch(int) (int, bool) {
	if b.done.Load() {
		return 0, true
	}
	<-b.release
	b.done.Store(true)
	return 1, true
}

func (b *blockerTask) Backlog() int {
	if b.done.Load() {
		return 0
	}
	return 1
}

func TestWorkStealingRescuesPinnedBacklog(t *testing.T) {
	// Worker 0 owns both a blocking task and a backlogged buffer; worker 1
	// owns nothing. Without stealing the buffer would starve until the
	// blocker releases — with stealing, worker 1 must drain it.
	emit, buf, col := buildChain(400)
	blocker := &blockerTask{release: make(chan struct{})}
	s := New(Config{Workers: 2, BatchSize: 16})
	s.AddTo(0, blocker)
	s.AddTo(0, emit)
	s.AddTo(0, buf)
	s.Start()
	col.Wait() // the chain completes while worker 0 is still blocked
	close(blocker.release)
	s.Wait()
	if col.Len() != 200 {
		t.Fatalf("collected %d, want 200", col.Len())
	}
	c := s.Contention()
	if c.Steals == 0 {
		t.Fatalf("chain completed with worker 0 blocked, yet no steals recorded: %+v", c)
	}
	var stolen int64
	for _, st := range s.Stats() {
		stolen += st.Stolen
	}
	if stolen == 0 {
		t.Fatalf("steal counter is %d but no task reports stolen batches", c.Steals)
	}
}

// An idle poll emitter is not stealable work: after a poll that found
// nothing its task reports no backlog, so the other worker counts no steal
// and both park (the thief used to count every empty poll as a steal and
// never sleep).
func TestIdleLiveSourceIsNotStolen(t *testing.T) {
	src := &pollEmitter{SourceBase: pubsub.NewSourceBase("live"), empty: -1}
	s := New(Config{Workers: 2})
	s.AddTo(0, NewEmitterTask(src))
	s.Start()
	time.Sleep(100 * time.Millisecond)
	if c := s.Contention(); c.Steals != 0 || c.StealMisses == 0 {
		t.Fatalf("idle source: %+v, want no steals and the scans ending in misses", c)
	}
	s.Stop()
	if st := s.Stats()[0]; st.Stolen != 0 || st.Processed != 0 {
		t.Fatalf("idle source: %+v, want no stolen batches and no work", st)
	}
}

// Idle workers park instead of polling: with a source that is never ready,
// the workers run at most the owner's pick and sweep and one probe by the
// other worker, then no batch at all.
func TestIdleWorkersRunNoBatches(t *testing.T) {
	src := &pollEmitter{SourceBase: pubsub.NewSourceBase("live"), empty: -1}
	s := New(Config{Workers: 2})
	s.AddTo(0, NewEmitterTask(src))
	s.Start()
	defer s.Stop()
	time.Sleep(20 * time.Millisecond)
	settled := s.Contention().Batches
	if settled > 3 {
		t.Fatalf("%d batches before parking, want at most 3", settled)
	}
	time.Sleep(100 * time.Millisecond)
	if got := s.Contention().Batches; got != settled {
		t.Fatalf("%d batches in 100 ms of idle: the workers are not parking", got-settled)
	}
}
