package metadata

import (
	"testing"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// TestTraceSpanPropagationThroughChain follows one traced element through
// a 3-operator monitored chain: a filter (forwards the element unchanged,
// so the trace rides along), a map (constructs a fresh element, so its
// block must re-attach the trace) and a second filter. Every hop must
// append in/out spans in graph order and the element arriving at the sink
// must still carry the context.
func TestTraceSpanPropagationThroughChain(t *testing.T) {
	tracer := telemetry.NewTracer(1, 0)
	f1 := ops.NewFilter("f1", func(any) bool { return true })
	mp := ops.NewMap("m", func(v any) any { return v.(int) * 10 })
	f2 := ops.NewFilter("f2", func(any) bool { return true })

	d1 := monitorFed(f1, WithTracer(tracer))
	d2 := Monitor(mp, WithTracer(tracer))
	d3 := Monitor(f2, WithTracer(tracer))
	col := pubsub.NewCollector("out", 1)
	if err := pubsub.Connect(f1, mp, f2).Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}

	tr := tracer.MaybeTrace()
	tr.Hop("src", "emit", 5)
	d1.ProcessBatch(temporal.Batch{telemetry.Attach(temporal.At(7, 5), tr)}, 0)
	d1.Done(0)
	col.Wait()

	elems := col.Elements()
	if len(elems) != 1 {
		t.Fatalf("sink got %d elements, want 1", len(elems))
	}
	if elems[0].Value != 70 {
		t.Fatalf("value = %v, want 70", elems[0].Value)
	}
	if telemetry.FromElement(elems[0]) != tr {
		t.Fatal("trace context did not survive to the sink (map hop dropped it)")
	}

	want := []struct{ op, event string }{
		{"src", "emit"},
		{"f1", "in"}, {"f1", "out"},
		{"m", "in"}, {"m", "out"},
		{"f2", "in"}, {"f2", "out"},
	}
	spans := tr.Spans()
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %v, want %d", len(spans), spans, len(want))
	}
	for i, w := range want {
		if spans[i].Op != w.op || spans[i].Event != w.event {
			t.Fatalf("span %d = %s/%s, want %s/%s", i, spans[i].Op, spans[i].Event, w.op, w.event)
		}
		if i > 0 && spans[i].WallNano < spans[i-1].WallNano {
			t.Fatalf("span stamps not monotone at %d", i)
		}
	}

	// The traced hand-offs feed the queue-time histograms and every
	// processed element feeds the service-time histograms.
	for _, d := range []*Monitored{d1.Monitored, d2, d3} {
		if d.ServiceTimeHistogram().Count() == 0 {
			t.Fatalf("%s recorded no service time", d.Inner().Name())
		}
	}
	if d2.QueueTimeHistogram().Count() == 0 {
		t.Fatal("map recorded no queue (hand-off) time")
	}
	if v, ok := d2.Get(ServiceTimeP99); !ok || v < 0 {
		t.Fatalf("ServiceTimeP99 = %v ok=%v", v, ok)
	}
	if _, ok := d2.Get(QueueTimeP50); !ok {
		t.Fatal("QueueTimeP50 undefined despite samples")
	}
}

// TestUntracedElementsUnaffected checks the tracing path is inert for
// unsampled elements: no spans, no attachment, queue histogram untouched.
func TestUntracedElementsUnaffected(t *testing.T) {
	tracer := telemetry.NewTracer(1_000_000, 0) // effectively never samples
	f := ops.NewFilter("f", func(any) bool { return true })
	d := monitorFed(f, WithTracer(tracer))
	col := pubsub.NewCollector("out", 1)
	if err := d.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.ProcessBatch(temporal.Batch{temporal.At(i, temporal.Time(i))}, 0)
	}
	d.Done(0)
	col.Wait()
	for _, e := range col.Elements() {
		if e.Trace != nil {
			t.Fatal("unsampled element gained a trace")
		}
	}
	if d.QueueTimeHistogram().Count() != 0 {
		t.Fatal("queue histogram recorded without traces")
	}
	// Service timing runs on the 1-in-16 maintenance sample: of 10
	// elements only the first is timed.
	if d.ServiceTimeHistogram().Count() != 1 {
		t.Fatalf("service histogram = %d, want 1", d.ServiceTimeHistogram().Count())
	}
}

// freshPipe rebuilds every element from scratch, dropping the trace slot,
// so only the block's re-attachment can carry a trace across it.
type freshPipe struct{ pubsub.PipeBase }

func (p *freshPipe) ProcessBatch(b temporal.Batch, _ int) {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	for _, e := range b {
		p.Emit(temporal.Element{Value: e.Value.(int) * 10, Interval: e.Interval, Trace: nil})
	}
	p.Flush()
}

// TestTracedElementsInsideAFrame pins trace attribution at frame
// granularity: traced elements in the middle of a frame get their in/out
// hops and — across an operator that builds fresh elements — their trace
// re-attached to exactly their own output, while the untraced elements
// around them stay untraced and every count stays per-element exact.
func TestTracedElementsInsideAFrame(t *testing.T) {
	tracer := telemetry.NewTracer(1, 0)
	f, fresh := ops.NewFilter("f", func(any) bool { return true }), &freshPipe{PipeBase: pubsub.NewPipeBase("fresh", 1)}
	d1 := monitorFed(f, WithTracer(tracer))
	d2 := Monitor(fresh, WithTracer(tracer))
	col := pubsub.NewCollector("out", 1)
	if err := pubsub.Connect(f, fresh).Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}

	frame := make(temporal.Batch, 8)
	traces := map[int]*telemetry.Trace{}
	for i := range frame {
		frame[i] = temporal.At(i, temporal.Time(i))
		if i == 2 || i == 5 {
			traces[i] = tracer.MaybeTrace()
			frame[i] = telemetry.Attach(frame[i], traces[i])
		}
	}
	d1.ProcessBatch(frame, 0)
	d1.Done(0)
	col.Wait()

	out := col.Elements()
	if len(out) != len(frame) {
		t.Fatalf("sink got %d elements, want %d", len(out), len(frame))
	}
	for i, e := range out {
		if e.Value != i*10 {
			t.Fatalf("output %d = %v: frame order lost", i, e.Value)
		}
		if got, want := telemetry.FromElement(e), traces[i]; got != want {
			t.Fatalf("output %d carries trace %p, want %p", i, got, want)
		}
	}
	for i, tr := range traces {
		want := []struct{ op, event string }{{"f", "in"}, {"f", "out"}, {"fresh", "in"}, {"fresh", "out"}}
		spans := tr.Spans()
		if len(spans) != len(want) {
			t.Fatalf("element %d: spans %v, want %d hops", i, spans, len(want))
		}
		for k, w := range want {
			if spans[k].Op != w.op || spans[k].Event != w.event {
				t.Fatalf("element %d span %d = %s/%s, want %s/%s", i, k, spans[k].Op, spans[k].Event, w.op, w.event)
			}
		}
	}
	for _, d := range []*Monitored{d1.Monitored, d2} {
		if in, _ := d.Get(InputCount); in != 8 {
			t.Fatalf("%s counted %v inputs, want 8", d.Inner().Name(), in)
		}
		if out, _ := d.Get(OutputCount); out != 8 {
			t.Fatalf("%s counted %v outputs, want 8", d.Inner().Name(), out)
		}
	}
}
