package metadata

import (
	"testing"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// passPipe forwards every even value, dropping odds (selectivity 0.5 on
// alternating input), so selectivity is observable.
type passPipe struct {
	pubsub.PipeBase
	mem int
}

func newPassPipe() *passPipe {
	return &passPipe{PipeBase: pubsub.NewPipeBase("pass", 1)}
}

func (p *passPipe) Process(e temporal.Element, _ int) {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	if e.Value.(int)%2 == 0 {
		p.Transfer(e)
	}
}

func (p *passPipe) MemoryUsage() int { return p.mem }

// fed is a monitored pipe together with the source feeding it: a pipe's
// input side is recorded where its upstream publishes, so the tests push
// frames through src rather than calling the pipe.
type fed struct {
	*Monitored
	src pubsub.SourceBase
}

func monitorFed(p pubsub.Pipe, opts ...Option) *fed {
	f := &fed{Monitored: Monitor(p, opts...), src: pubsub.NewSourceBase("src")}
	if err := f.src.Subscribe(p, 0); err != nil {
		panic(err)
	}
	return f
}

func (f *fed) ProcessBatch(b temporal.Batch, _ int)     { f.src.TransferBatch(b) }
func (f *fed) Done(int)                                 { f.src.SignalDone() }
func (f *fed) Subscribe(s pubsub.Sink, input int) error { return f.Inner().Subscribe(s, input) }

func pump(m *fed, n int) *pubsub.Collector {
	col := pubsub.NewCollector("col", 1)
	m.Subscribe(col, 0)
	for i := 0; i < n; i++ {
		m.ProcessBatch(temporal.Batch{temporal.At(i, temporal.Time(i))}, 0)
	}
	m.Done(0)
	col.Wait()
	return col
}

func TestCountsAndSelectivity(t *testing.T) {
	m := monitorFed(newPassPipe())
	col := pump(m, 10)
	if col.Len() != 5 {
		t.Fatalf("downstream received %d, want 5", col.Len())
	}
	if v, ok := m.Get(InputCount); !ok || v != 10 {
		t.Errorf("InputCount = (%v,%v), want (10,true)", v, ok)
	}
	if v, ok := m.Get(OutputCount); !ok || v != 5 {
		t.Errorf("OutputCount = (%v,%v), want (5,true)", v, ok)
	}
	if v, ok := m.Get(Selectivity); !ok || v != 0.5 {
		t.Errorf("Selectivity = (%v,%v), want (0.5,true)", v, ok)
	}
}

func TestSubscribersMetric(t *testing.T) {
	m := monitorFed(newPassPipe())
	m.Subscribe(pubsub.NewCollector("a", 1), 0)
	m.Subscribe(pubsub.NewCollector("b", 1), 0)
	if v, ok := m.Get(Subscribers); !ok || v != 2 {
		t.Errorf("Subscribers = (%v,%v), want (2,true)", v, ok)
	}
}

func TestRatesWithFakeClock(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	m := monitorFed(newPassPipe(), WithClock(clock))
	m.Subscribe(pubsub.NewCollector("col", 1), 0)
	// One input every 10ms => instantaneous rate 100/s.
	for i := 0; i < 50; i++ {
		m.ProcessBatch(temporal.Batch{temporal.At(i*2, temporal.Time(i))}, 0) // even: all pass
		clock.Advance(10 * time.Millisecond)
	}
	in, ok := m.Get(InputRate)
	if !ok {
		t.Fatal("InputRate inactive")
	}
	if in < 90 || in > 110 {
		t.Errorf("InputRate = %v, want ~100", in)
	}
	avg, _ := m.Get(InputRateAvg)
	if avg < 90 || avg > 110 {
		t.Errorf("InputRateAvg = %v, want ~100", avg)
	}
	vr, _ := m.Get(InputRateVar)
	if vr > 1 {
		t.Errorf("InputRateVar = %v, want ~0 for constant spacing", vr)
	}
	out, _ := m.Get(OutputRate)
	if out < 80 || out > 120 {
		t.Errorf("OutputRate = %v, want ~100", out)
	}
}

func TestMemoryUsageMetric(t *testing.T) {
	p := newPassPipe()
	p.mem = 4096
	m := monitorFed(p)
	if v, ok := m.Get(MemoryUsage); !ok || v != 4096 {
		t.Errorf("MemoryUsage = (%v,%v), want (4096,true)", v, ok)
	}
}

func TestQueueLenMetric(t *testing.T) {
	buf := pubsub.NewBuffer("buf")
	m := monitorFed(buf)
	m.ProcessBatch(temporal.Batch{temporal.At(1, 1)}, 0)
	m.ProcessBatch(temporal.Batch{temporal.At(2, 2)}, 0)
	if v, ok := m.Get(QueueLen); !ok || v != 2 {
		t.Errorf("QueueLen = (%v,%v), want (2,true)", v, ok)
	}
}

func TestSetKindsAtRuntime(t *testing.T) {
	m := monitorFed(newPassPipe(), WithKinds(InputCount))
	m.Subscribe(pubsub.NewCollector("col", 1), 0)
	m.ProcessBatch(temporal.Batch{temporal.At(0, 0)}, 0)
	if _, ok := m.Get(OutputCount); ok {
		t.Error("OutputCount active despite WithKinds(InputCount)")
	}
	m.SetKinds(InputCount, OutputCount, Selectivity)
	if _, ok := m.Get(OutputCount); !ok {
		t.Error("OutputCount inactive after SetKinds")
	}
	got := m.Kinds()
	if len(got) != 3 {
		t.Errorf("Kinds = %v, want 3 entries", got)
	}
}

func TestSnapshotContainsActiveDefinedMetrics(t *testing.T) {
	m := monitorFed(newPassPipe(), WithKinds(InputCount, OutputCount, MemoryUsage))
	m.Subscribe(pubsub.NewCollector("col", 1), 0)
	m.ProcessBatch(temporal.Batch{temporal.At(2, 0)}, 0)
	snap := m.Snapshot()
	if snap[InputCount] != 1 || snap[OutputCount] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	if _, present := snap[InputRate]; present {
		t.Error("snapshot contains inactive kind")
	}
}

func TestProcessingCostMeasured(t *testing.T) {
	m := monitorFed(newPassPipe(), WithKinds(ProcessingCost))
	m.Subscribe(pubsub.NewCollector("col", 1), 0)
	for i := 0; i < 100; i++ {
		m.ProcessBatch(temporal.Batch{temporal.At(i*2, temporal.Time(i))}, 0)
	}
	if v, ok := m.Get(ProcessingCost); !ok || v <= 0 {
		t.Errorf("ProcessingCost = (%v,%v), want positive", v, ok)
	}
}

func TestTimestampMetrics(t *testing.T) {
	m := monitorFed(newPassPipe())
	m.Subscribe(pubsub.NewCollector("col", 1), 0)
	m.ProcessBatch(temporal.Batch{temporal.At(2, 42)}, 0)
	if v, _ := m.Get(LastInputStamp); v != 42 {
		t.Errorf("LastInputStamp = %v, want 42", v)
	}
	if v, _ := m.Get(LastOutputStamp); v != 42 {
		t.Errorf("LastOutputStamp = %v, want 42", v)
	}
}

func TestMonitoringTransparency(t *testing.T) {
	// Same pipeline with and without monitoring must produce identical
	// output, including done propagation.
	run := func(monitored bool) []any {
		src := pubsub.NewSliceSource("src", []temporal.Element{
			temporal.At(0, 0), temporal.At(1, 1), temporal.At(2, 2), temporal.At(3, 3),
		})
		node := newPassPipe()
		if monitored {
			Monitor(node)
		}
		col := pubsub.NewCollector("col", 1)
		src.Subscribe(node, 0)
		node.Subscribe(col, 0)
		pubsub.Drive(src)
		col.Wait()
		return col.Values()
	}
	plain, monitored := run(false), run(true)
	if len(plain) != len(monitored) {
		t.Fatalf("monitoring changed output: %v vs %v", plain, monitored)
	}
	for i := range plain {
		if plain[i] != monitored[i] {
			t.Fatalf("monitoring changed output at %d: %v vs %v", i, plain[i], monitored[i])
		}
	}
}

func TestAllKindsSortedAndComplete(t *testing.T) {
	ks := AllKinds()
	if len(ks) != 23 {
		t.Errorf("AllKinds returned %d kinds", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Errorf("AllKinds not sorted: %v", ks)
		}
	}
}

// TestMonitoredTransferAllocatesNothing pins the frame path's allocation
// contract: publishing an untraced frame into an operator whose block has
// all 23 kinds (and tracing) on allocates nothing — counts are atomics,
// everything else sits behind the stride in preallocated state.
func TestMonitoredTransferAllocatesNothing(t *testing.T) {
	src := pubsub.NewSourceBase("src")
	src.SetFlightRef(flight.NewRef("src"))
	p := newPassPipe()
	m := Monitor(p, WithTracer(telemetry.NewTracer(128, 0)))
	if len(m.Kinds()) != 23 {
		t.Fatalf("%d kinds active, want all 23", len(m.Kinds()))
	}
	pubsub.Connect(&src, p).Subscribe(pubsub.NewCounter("c", 1), 0)
	frame := make(temporal.Batch, 64)
	for i := range frame {
		frame[i] = temporal.At(i, temporal.Time(i))
	}
	if allocs := testing.AllocsPerRun(200, func() { src.TransferBatch(frame) }); allocs != 0 {
		t.Fatalf("TransferBatch into a fully monitored operator allocates %v per frame, want 0", allocs)
	}
	if in, _ := m.Get(InputCount); in != 201*64 {
		t.Fatalf("InputCount = %v, want %d", in, 201*64)
	}
	if m.ServiceTimeHistogram().Count() == 0 {
		t.Fatal("the strided side never ran: the test measured a detached block")
	}
}
