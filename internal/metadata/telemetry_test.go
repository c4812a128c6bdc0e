package metadata

import (
	"sync"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// TestTraceSpanPropagationThroughChain follows one traced element through
// a 3-operator monitored chain: a filter (forwards the element unchanged,
// so the trace rides along), a map (constructs a fresh element through
// temporal.Derive, which carries the trace) and a second filter. Every hop
// must append in/out spans in graph order and the element arriving at the
// sink must still carry the context.
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

// TestTracedElementsInsideAFrame pins trace attribution at frame
// granularity: traced elements in the middle of a frame get their in/out
// hops and — across a map, which builds fresh elements — exactly their own
// output carries their trace, while the untraced elements around them stay
// untraced and every count stays per-element exact.
func TestTracedElementsInsideAFrame(t *testing.T) {
	tracer := telemetry.NewTracer(1, 0)
	f, mp := ops.NewFilter("f", func(any) bool { return true }), ops.NewMap("m", func(v any) any { return v.(int) * 10 })
	d1 := monitorFed(f, WithTracer(tracer))
	d2 := Monitor(mp, WithTracer(tracer))
	col := pubsub.NewCollector("out", 1)
	if err := pubsub.Connect(f, mp).Subscribe(col, 0); err != nil {
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
		wantSpans(t, tr, span{"f", "in", i}, span{"f", "out", i}, span{"m", "in", i}, span{"m", "out", i})
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

// span is one expected hop: operator, event and application time.
type span struct {
	op, event string
	app       int
}

// wantSpans fails unless tr recorded exactly the hops want, in order.
func wantSpans(t *testing.T, tr *telemetry.Trace, want ...span) {
	t.Helper()
	got := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("trace %d: spans %v, want %v", tr.ID, got, want)
	}
	for k, w := range want {
		if got[k].Op != w.op || got[k].Event != w.event || got[k].AppTime != temporal.Time(w.app) {
			t.Fatalf("trace %d span %d = %s/%s@%d, want %s/%s@%d", tr.ID, k, got[k].Op, got[k].Event, got[k].AppTime, w.op, w.event, w.app)
		}
	}
}

// TestBufferedResultsKeepTheirOwnTrace feeds a monitored group-by an
// untraced k0 element valid over [0,3), then a traced k1 element at t=10.
// Processing k1 releases k0's buffered result: it must leave untraced, and
// k1's trace must hold only its own hops — a trace crosses an operator
// through the operator's trace slot, never by whatever input happens to be
// inside it when a result is released.
func TestBufferedResultsKeepTheirOwnTrace(t *testing.T) {
	tracer := telemetry.NewTracer(1, 0)
	g := ops.NewGroupBy("g", func(v any) any { return v }, aggregate.NewCount, nil)
	d := monitorFed(g, WithTracer(tracer))
	col := pubsub.NewCollector("out", 1)
	if err := d.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	tr := tracer.MaybeTrace()
	d.ProcessBatch(temporal.Batch{temporal.NewElement("k0", 0, 3)}, 0)
	d.ProcessBatch(temporal.Batch{telemetry.Attach(temporal.NewElement("k1", 10, 12), tr)}, 0)
	d.Done(0)
	col.Wait()

	out := col.Elements()
	if len(out) != 2 {
		t.Fatalf("sink got %v, want one result per group", out)
	}
	for _, e := range out {
		want := tr
		if e.Value.(ops.GroupResult).Key == "k0" {
			want = nil
		}
		if got := telemetry.FromElement(e); got != want {
			t.Fatalf("result %v carries trace %p, want %p", e, got, want)
		}
	}
	wantSpans(t, tr, span{"g", "in", 10}, span{"g", "out", 10})
}

// TestConcurrentTracedJoinInputs publishes traced frames into both inputs of
// one monitored join from two goroutines at once: every traced element gets
// exactly one "in" hop at the join, and under -race the block's traced
// delivery path shows no data race.
func TestConcurrentTracedJoinInputs(t *testing.T) {
	const frames, size = 50, 8
	tracer := telemetry.NewTracer(3, frames*size*2)
	key := func(v any) any { return v }
	j := ops.NewEquiJoin("j", key, key, func(l, r any) any { return [2]any{l, r} })
	Monitor(j, WithTracer(tracer))
	if err := j.Subscribe(pubsub.NewCounter("out", 1), 0); err != nil {
		t.Fatal(err)
	}
	srcs := [2]pubsub.SourceBase{pubsub.NewSourceBase("l"), pubsub.NewSourceBase("r")}
	var wg sync.WaitGroup
	for in := range srcs {
		if err := srcs[in].Subscribe(j, in); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(src *pubsub.SourceBase) {
			defer wg.Done()
			frame := make(temporal.Batch, size)
			for f := 0; f < frames; f++ {
				for i := range frame {
					ts := temporal.Time(f*size + i)
					frame[i] = temporal.NewElement(i, ts, ts+4)
					if tr := tracer.MaybeTrace(); tr != nil {
						frame[i] = telemetry.Attach(frame[i], tr)
					}
				}
				src.TransferBatch(frame)
			}
			src.SignalDone()
		}(&srcs[in])
	}
	wg.Wait()

	traces := tracer.Traces()
	if want := frames * size * 2 / 3; len(traces) != want {
		t.Fatalf("%d traces, want %d", len(traces), want)
	}
	for _, tr := range traces {
		ins := 0
		for _, s := range tr.Spans() {
			if s.Op == "j" && s.Event == "in" {
				ins++
			}
		}
		if ins != 1 {
			t.Fatalf("trace %d: %d j/in hops, want 1 (spans %v)", tr.ID, ins, tr.Spans())
		}
	}
}
