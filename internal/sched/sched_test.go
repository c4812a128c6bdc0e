package sched

import (
	"io"
	"testing"
	"time"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/remote"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

func chronons(n int) []temporal.Element {
	out := make([]temporal.Element, n)
	for i := range out {
		out[i] = temporal.At(i, temporal.Time(i))
	}
	return out
}

// buildChain wires src → buffer → filter → map → collector, returning the
// tasks (emitter + boundary) and the collector. The filter+map pair forms
// one virtual node behind the boundary buffer.
func buildChain(n int) (*EmitterTask, *BufferTask, *pubsub.Collector) {
	src := pubsub.NewSliceSource("src", chronons(n))
	f := ops.NewFilter("f", func(v any) bool { return v.(int)%2 == 0 })
	m := ops.NewMap("m", func(v any) any { return v.(int) * 10 })
	col := pubsub.NewCollector("col", 1)
	bt, err := Boundary("buf", src, f, 0)
	if err != nil {
		panic(err)
	}
	f.Subscribe(m, 0)
	m.Subscribe(col, 0)
	return NewEmitterTask(src), bt, col
}

func TestSchedulerRunsPipelineToCompletion(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		emit, buf, col := buildChain(1000)
		s := New(Config{Workers: workers})
		s.Add(emit)
		s.Add(buf)
		s.Start()
		s.Wait()
		col.Wait()
		if col.Len() != 500 {
			t.Fatalf("workers=%d: collected %d, want 500", workers, col.Len())
		}
	}
}

func TestSchedulerAllStrategies(t *testing.T) {
	for _, mk := range []Factory{
		RoundRobin(), FIFO(), Random(1), Chain(), RateBased(), HighestBacklog(),
	} {
		emit, buf, col := buildChain(500)
		s := New(Config{Workers: 1, Strategy: mk})
		s.Add(emit)
		s.Add(buf)
		s.Start()
		s.Wait()
		col.Wait()
		if col.Len() != 250 {
			t.Fatalf("%s: collected %d, want 250", mk().Name(), col.Len())
		}
	}
}

func TestSchedulerPreservesOrder(t *testing.T) {
	emit, buf, col := buildChain(2000)
	s := New(Config{Workers: 2, BatchSize: 7})
	s.Add(emit)
	s.Add(buf)
	s.Start()
	s.Wait()
	col.Wait()
	vals := col.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i].(int) <= vals[i-1].(int) {
			t.Fatalf("order violated at %d: %v then %v", i, vals[i-1], vals[i])
		}
	}
}

func TestSchedulerStats(t *testing.T) {
	emit, buf, col := buildChain(300)
	s := New(Config{Workers: 1, BatchSize: 10})
	s.Add(emit)
	s.Add(buf)
	s.Start()
	s.Wait()
	col.Wait()
	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	var total int64
	for _, st := range stats {
		if !st.Done {
			t.Fatalf("task %s not done", st.Name)
		}
		total += st.Processed
	}
	if total < 600 { // 300 emitted + 300 drained
		t.Fatalf("total processed = %d, want >= 600", total)
	}
}

// pollEmitter is a live source seen through its poll side: its first
// `empty` EmitBatch calls find nothing ready and return (0, true), then it
// publishes elems and ends. With empty < 0 it is never ready.
type pollEmitter struct {
	pubsub.SourceBase
	empty int
	elems []temporal.Element
}

func (p *pollEmitter) EmitNext() bool { _, more := p.EmitBatch(1); return more }

func (p *pollEmitter) EmitBatch(max int) (int, bool) {
	if p.empty != 0 {
		if p.empty > 0 {
			p.empty--
		}
		return 0, true
	}
	if len(p.elems) == 0 {
		p.SignalDone()
		return 0, false
	}
	n := min(max, len(p.elems))
	p.TransferBatch(p.elems[:n])
	p.elems = p.elems[n:]
	return n, true
}

// A poll that finds nothing is not progress: the task reports zero work
// units and no backlog, so TaskStats counts only the elements that were
// actually published, and the owner's sweep is what polls it again.
func TestIdleLiveSourceReportsNoWork(t *testing.T) {
	src := &pollEmitter{SourceBase: pubsub.NewSourceBase("live"), empty: 1, elems: chronons(5)}
	sink := pubsub.NewCounter("ctr", 1)
	src.Subscribe(sink, 0)
	task := NewEmitterTask(src)
	if n, done := task.RunBatch(64); n != 0 || done {
		t.Fatalf("RunBatch on a source with nothing ready = (%d, %v), want (0, false)", n, done)
	}
	if b := task.Backlog(); b != 0 {
		t.Fatalf("backlog after an empty poll = %d, want 0", b)
	}

	s := New(Config{Workers: 1})
	s.Add(task)
	s.Start()
	s.Wait()
	if sink.Count() != 5 {
		t.Fatalf("sink saw %d elements, want 5", sink.Count())
	}
	if st := s.Stats()[0]; st.Processed != 5 || !st.Done {
		t.Fatalf("stats = %+v, want exactly the 5 published elements and done", st)
	}
}

// One batch is one EmitBatch call: a remote stream whose producer has sent
// three elements and keeps the connection open hands those three over
// without the worker blocking on a fourth.
func TestEmitterBatchDoesNotWaitForMoreInput(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	go remote.NewWriter("w", pw).ProcessBatch(chronons(3), 0)
	rd := remote.NewReader("r", pr)
	sink := pubsub.NewCounter("ctr", 1)
	rd.Subscribe(sink, 0)
	task := NewEmitterTask(rd)
	got := make(chan int, 1)
	go func() {
		n := 0
		for n < 3 {
			k, _ := task.RunBatch(64)
			n += k
		}
		got <- n
	}()
	select {
	case n := <-got:
		if n != 3 || sink.Count() != 3 {
			t.Fatalf("batches moved %d elements, sink saw %d, want 3", n, sink.Count())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunBatch still blocked after 2 s on input that has not arrived")
	}
}

func TestSchedulerStop(t *testing.T) {
	// An emitter that never finishes; Stop must terminate the workers.
	i := 0
	src := pubsub.NewFuncSource("inf", func() (temporal.Element, bool) {
		i++
		return temporal.At(i, temporal.Time(i)), true
	})
	sink := pubsub.NewCounter("ctr", 1)
	src.Subscribe(sink, 0)
	s := New(Config{Workers: 1})
	s.Add(NewEmitterTask(src))
	s.Start()
	time.Sleep(5 * time.Millisecond)
	doneC := make(chan struct{})
	go func() { s.Stop(); close(doneC) }()
	select {
	case <-doneC:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not terminate workers")
	}
	if sink.Count() == 0 {
		t.Fatal("emitter never ran")
	}
}

func TestBoundaryValidation(t *testing.T) {
	if _, err := Boundary("b", nil, nil, 0); err == nil {
		t.Fatal("Boundary accepted nil endpoints")
	}
}

func TestAddToPinsTask(t *testing.T) {
	emit, buf, col := buildChain(100)
	s := New(Config{Workers: 2})
	s.AddTo(0, emit)
	s.AddTo(1, buf)
	s.Start()
	s.Wait()
	col.Wait()
	if col.Len() != 50 {
		t.Fatalf("collected %d, want 50", col.Len())
	}
}

// strategyTask is a synthetic task for strategy unit tests.
type strategyTask struct {
	name    string
	backlog int
	sel     float64
	cost    float64
}

func (t *strategyTask) Name() string                { return t.name }
func (t *strategyTask) RunBatch(int) (int, bool)    { return 0, false }
func (t *strategyTask) Backlog() int                { return t.backlog }
func (t *strategyTask) Profile() (float64, float64) { return t.sel, t.cost }

func TestRoundRobinCycles(t *testing.T) {
	tasks := []Task{
		&strategyTask{name: "a", backlog: 1},
		&strategyTask{name: "b", backlog: 1},
		&strategyTask{name: "c", backlog: 0},
	}
	s := RoundRobin()()
	got := []int{s.Next(tasks), s.Next(tasks), s.Next(tasks)}
	want := []int{1, 0, 1} // starts after index 0, skips empty c
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin picks %v, want %v", got, want)
		}
	}
}

func TestFIFOAlwaysFirstReady(t *testing.T) {
	tasks := []Task{
		&strategyTask{name: "a", backlog: 0},
		&strategyTask{name: "b", backlog: 5},
		&strategyTask{name: "c", backlog: 9},
	}
	s := FIFO()()
	if idx := s.Next(tasks); idx != 1 {
		t.Fatalf("fifo picked %d, want 1", idx)
	}
}

func TestChainPrefersSelectiveCheapTask(t *testing.T) {
	tasks := []Task{
		&strategyTask{name: "passthrough", backlog: 5, sel: 1.0, cost: 1},
		&strategyTask{name: "dropper", backlog: 5, sel: 0.1, cost: 1},
	}
	if idx := Chain()().Next(tasks); idx != 1 {
		t.Fatalf("chain picked %d, want the dropper (1)", idx)
	}
}

func TestRateBasedPrefersProductiveTask(t *testing.T) {
	tasks := []Task{
		&strategyTask{name: "passthrough", backlog: 5, sel: 1.0, cost: 1},
		&strategyTask{name: "dropper", backlog: 5, sel: 0.1, cost: 1},
	}
	if idx := RateBased()().Next(tasks); idx != 0 {
		t.Fatalf("rate-based picked %d, want the passthrough (0)", idx)
	}
}

func TestHighestBacklog(t *testing.T) {
	tasks := []Task{
		&strategyTask{name: "a", backlog: 3},
		&strategyTask{name: "b", backlog: 9},
		&strategyTask{name: "c", backlog: 1},
	}
	if idx := HighestBacklog()().Next(tasks); idx != 1 {
		t.Fatalf("backlog picked %d, want 1", idx)
	}
}

func TestAllStrategiesReturnMinusOneWhenIdle(t *testing.T) {
	tasks := []Task{&strategyTask{name: "a", backlog: 0}}
	for _, mk := range []Factory{RoundRobin(), FIFO(), Random(1), Chain(), RateBased(), HighestBacklog()} {
		if idx := mk().Next(tasks); idx != -1 {
			t.Fatalf("%s returned %d on idle tasks", mk().Name(), idx)
		}
	}
}

func TestChainReducesBacklogVersusFIFOUnderBurst(t *testing.T) {
	// A two-stage plan where stage 1 drops 90% of elements. Chain should
	// keep (max) queue memory no worse than FIFO-on-registration-order
	// when the drop stage is registered last.
	run := func(mk Factory) int {
		src := pubsub.NewSliceSource("src", chronons(5000))
		drop := ops.NewFilter("drop", func(v any) bool { return v.(int)%10 == 0 })
		col := pubsub.NewCollector("col", 1)
		// boundary 1: src -> buf1 -> drop ; boundary 2: drop -> buf2 -> col
		b1, _ := Boundary("buf1", src, drop, 0)
		b2, _ := Boundary("buf2", drop, col, 0)
		attachBlocks(src, b1.Buffer(), drop, b2.Buffer())
		s := New(Config{Workers: 1, Strategy: mk, BatchSize: 16})
		s.Add(NewEmitterTask(src))
		s.Add(b2) // register the productive stage first,
		s.Add(b1) // the dropping stage last
		s.Start()
		s.Wait()
		col.Wait()
		if col.Len() != 500 {
			t.Fatalf("collected %d, want 500", col.Len())
		}
		max := 0
		for _, st := range s.Stats() {
			if st.MaxBacklog > max {
				max = st.MaxBacklog
			}
		}
		return max
	}
	chainMax := run(Chain())
	fifoMax := run(FIFO())
	if chainMax > fifoMax*2 {
		t.Fatalf("chain max backlog %d much worse than fifo %d", chainMax, fifoMax)
	}
}

// attachBlocks gives every node its own flight block, as the facade's
// recorder does: the tasks' profiles are then measured.
func attachBlocks(nodes ...interface {
	Name() string
	SetFlightRef(*flight.OpRef)
}) {
	for _, n := range nodes {
		n.SetFlightRef(flight.NewRef(n.Name()))
	}
}

// measuredTask wires src → boundary → filter(keep) → counter with a block on
// every node, runs 100 elements through and leaves 10 queued: the task's
// profile is measured, never set.
func measuredTask(t *testing.T, name string, keep ops.Predicate) *BufferTask {
	t.Helper()
	src := pubsub.NewSliceSource(name+".src", chronons(110))
	f := ops.NewFilter(name, keep)
	bt, err := Boundary(name+".buf", src, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Subscribe(pubsub.NewCounter(name+".out", 1), 0)
	attachBlocks(src, bt.Buffer(), f)
	src.EmitBatch(100)
	bt.RunBatch(0)
	src.EmitBatch(10)
	return bt
}

func passAll(any) bool    { return true }
func oneInTen(v any) bool { return v.(int)%10 == 0 }

// Chain and rate-based scheduling read σ off the blocks: the filter's task
// measures 0.1 and the pass-through's 1, so Chain drains the filter's task
// first and rate-based the pass-through's. Each wanted task sits at index
// 1, where a tie on unmeasured profiles would never pick it.
func TestProfiledStrategiesReadMeasuredSelectivity(t *testing.T) {
	pass, filter := measuredTask(t, "pass", passAll), measuredTask(t, "filter", oneInTen)
	if sel, _ := filter.Profile(); sel != 0.1 {
		t.Fatalf("filter task σ = %v, want 0.1", sel)
	}
	if idx := Chain()().Next([]Task{pass, filter}); idx != 1 {
		t.Errorf("chain picked %d, want the filter's task (1)", idx)
	}
	if idx := RateBased()().Next([]Task{filter, pass}); idx != 1 {
		t.Errorf("rate-based picked %d, want the pass-through's task (1)", idx)
	}
}

// Without blocks nothing is counted: every task reports σ = 1, cost = 1.
func TestUnmeasuredTaskProfileIsUniform(t *testing.T) {
	emit, buf, _ := buildChain(100)
	pubsub.DriveBatched(emit.emitter, 64)
	for _, p := range []Profiled{emit, buf} {
		if sel, cost := p.Profile(); sel != 1 || cost != 1 {
			t.Errorf("%T profile = (%v, %v) without blocks, want (1, 1)", p, sel, cost)
		}
	}
}

// A profiled strategy picks the one ready task whatever its priority: a
// fan-out task (σ > 2) has a Chain priority below −1.
func TestProfiledStrategiesPickAnyReadyTask(t *testing.T) {
	for _, sel := range []float64{0.1, 1, 3} {
		tasks := []Task{&strategyTask{name: "a", backlog: 1, sel: sel, cost: 1}}
		for _, mk := range []Factory{Chain(), RateBased()} {
			if idx := mk().Next(tasks); idx != 0 {
				t.Errorf("%s with one ready task of σ = %v picked %d, want 0", mk().Name(), sel, idx)
			}
		}
	}
}

// No strategy allocates to pick: not Random's choice among the ready
// tasks, not the profiled strategies' reads of measured profiles.
func TestStrategiesPickWithoutAllocating(t *testing.T) {
	tasks := []Task{measuredTask(t, "pass", passAll), measuredTask(t, "filter", oneInTen)}
	for _, mk := range []Factory{RoundRobin(), FIFO(), Random(1), Chain(), RateBased(), HighestBacklog()} {
		s := mk()
		if n := testing.AllocsPerRun(2*profileEvery, func() { s.Next(tasks) }); n != 0 {
			t.Errorf("%s: %v allocations per pick, want 0", s.Name(), n)
		}
	}
}
