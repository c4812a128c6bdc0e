package experiments

import (
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
	"pipes/internal/metadata"
	"pipes/internal/ops"
	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
	"pipes/internal/traffic"
)

// TelemetryMode selects the instrumentation level for E18.
type TelemetryMode int

const (
	// TelemetryOff runs the bare physical operators.
	TelemetryOff TelemetryMode = iota
	// TelemetryMonitored turns every metadata kind on for every operator
	// (counts, rates, EWMA cost, service-time histograms).
	TelemetryMonitored
	// TelemetryTraced adds 1-in-N element tracing on top: sampled
	// elements carry a trace context and every hop appends spans and feeds
	// the queue-time histograms.
	TelemetryTraced
)

// E18Telemetry measures the overhead of the observability layer on the
// traffic workload (avg-HOV-speed query, b.N readings). The same graph
// runs bare, monitored, and monitored+traced; comparing ns/op across the
// three variants gives the per-element cost of metadata collection and
// sampled tracing.
func E18Telemetry(mode TelemetryMode, traceEvery int) func(b *testing.B) {
	return func(b *testing.B) {
		gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: b.N})
		cat := optimizer.NewCatalog()
		src := gen.Source("traffic")
		cat.Register("traffic", src, 1000)
		o := optimizer.New(cat)

		parsed, err := cql.Parse(traffic.QueryAvgHOVSpeed)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := o.AddQuery(parsed)
		if err != nil {
			b.Fatal(err)
		}
		var tracer *telemetry.Tracer
		if mode == TelemetryTraced {
			tracer = telemetry.NewTracer(traceEvery, 256)
		}
		if mode != TelemetryOff {
			for _, p := range inst.Created {
				metadata.Monitor(p, metadata.WithTracer(tracer))
			}
		}
		c := pubsub.NewCounter("c", 1)
		if err := inst.Root.Subscribe(c, 0); err != nil {
			b.Fatal(err)
		}
		if tracer != nil {
			// The stream feed tags sampled elements exactly as
			// DSMS.RegisterStream does in a telemetry-enabled engine.
			src.SetTransferHook(func(e temporal.Element) temporal.Element {
				if tr := tracer.MaybeTrace(); tr != nil {
					tr.Hop("traffic", "emit", e.Start)
					return telemetry.Attach(e, tr)
				}
				return e
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		pubsub.Drive(src)
		b.StopTimer()
		if c.Count() == 0 && b.N > 1000 {
			b.Fatal("query produced no output")
		}
		if tracer != nil {
			b.ReportMetric(float64(tracer.Sampled()), "traces")
		}
	}
}

// FlightMode selects the instrumentation level for E21.
type FlightMode int

const (
	// FlightOff runs the bare chain.
	FlightOff FlightMode = iota
	// FlightOn attaches flight-recorder handles to every hop: frame
	// occupancy and edge counters on each transfer, strided buffer
	// depth waterlines at the boundaries, ring events 1-in-16.
	FlightOn
	// FlightFull turns every metadata kind on over the same blocks — the
	// engine's complete always-on monitoring stack, matching what a
	// default-config DSMS (MonitorQueries plus flight recorder) runs.
	FlightFull
)

// E21FlightOverhead measures monitoring overhead on the transfer path:
// the E20 full chain (boundaries included) at the given frame size,
// bare vs flight-recorded vs flight+metadata. The blocks hang off the
// hot path at every TransferBatch and buffer enqueue/drain, so the
// flight-vs-off delta is the number the ≤8% acceptance envelope is
// measured against; flight+metadata reports the complete default stack.
func E21FlightOverhead(frame int, mode FlightMode) func(b *testing.B) {
	return func(b *testing.B) {
		src := e20Source("traffic", b.N)
		c, tasks, chain := e21Graph(src)
		var rec *flight.Recorder
		if mode != FlightOff {
			rec = newE21Recorder(src, tasks, chain, mode == FlightFull)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e20Drive(src, frame, tasks)
		b.StopTimer()
		if c.Count() == 0 && b.N > 10_000 {
			b.Fatal("chain produced no output")
		}
		if rec != nil {
			frames := int64(0)
			for _, ref := range rec.Refs() {
				frames += ref.Frames()
			}
			b.ReportMetric(float64(frames), "frames")
			b.ReportMetric(float64(len(rec.Events())), "ring-events")
		}
	}
}

// e21Graph wires the E20 full chain (filter/map-dense segment plus the
// stateful window/aggregate tail, both scheduler boundaries) and returns
// its operators in chain order.
func e21Graph(feed pubsub.Source) (*pubsub.Counter, []*sched.BufferTask, []pubsub.Pipe) {
	var chain []pubsub.Pipe
	wrap := func(p pubsub.Pipe) pubsub.Pipe {
		chain = append(chain, p)
		return p
	}
	f1 := wrap(ops.NewFilter("oakland", func(v any) bool {
		return v.(traffic.Reading).Direction == traffic.DirOakland
	}))
	m1 := wrap(ops.NewMap("kmh", func(v any) any {
		r := v.(traffic.Reading)
		r.Speed *= 1.609344
		return r
	}))
	f2 := wrap(ops.NewFilter("moving", func(v any) bool {
		return v.(traffic.Reading).Speed >= 8
	}))
	f3 := wrap(ops.NewFilter("hov", func(v any) bool {
		return v.(traffic.Reading).Lane == traffic.HOVLane
	}))
	m2 := wrap(ops.NewMap("speed", func(v any) any {
		return v.(traffic.Reading).Speed
	}))
	w := wrap(ops.NewTimeWindow("w1m", 60_000))
	g := wrap(ops.NewAggregate("avghov", aggregate.NewAvg))
	c := pubsub.NewCounter("c", 1)

	t1, err := sched.Boundary("q.in", feed, f1, 0)
	if err != nil {
		panic(err)
	}
	f1.Subscribe(m1, 0)
	m1.Subscribe(f2, 0)
	t2, err := sched.Boundary("q.mid", f2, f3, 0)
	if err != nil {
		panic(err)
	}
	f3.Subscribe(m2, 0)
	m2.Subscribe(w, 0)
	w.Subscribe(g, 0)
	g.Subscribe(c, 0)
	return c, []*sched.BufferTask{t1, t2}, chain
}

// newE21Recorder attaches a fresh flight recorder's blocks to every hop of
// the E21 chain — the feed, both boundary buffers and each operator — and,
// monitored, turns every metadata kind on over the operators' blocks:
// mirroring DSMS.instrument.
func newE21Recorder(src *pubsub.FuncSource, tasks []*sched.BufferTask, chain []pubsub.Pipe, monitored bool) *flight.Recorder {
	rec := flight.New(0)
	src.SetFlightRef(rec.Ref("traffic"))
	for _, t := range tasks {
		t.Buffer().SetFlightRef(rec.Ref(t.Name()))
	}
	for _, p := range chain {
		p.(interface{ SetFlightRef(*flight.OpRef) }).SetFlightRef(rec.Ref(p.Name()))
		if monitored {
			metadata.Monitor(p)
		}
	}
	return rec
}
