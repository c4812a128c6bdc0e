// Package metadata is the read side of PIPES' secondary-metadata framework:
// the 23 kinds of Fig. 3 — input/output rates, selectivity, subscriber
// count, memory usage, averages/variances and latency quantiles — as views
// computed, when asked, over the instrumentation block every node already
// carries (flight.OpRef, OBSERVABILITY.md). Monitoring an operator adds no
// node to the query graph: it selects which kinds the operator's block
// exposes and turns on the strided work those kinds need. The runtime
// components read the same block directly, never through a view: the
// scheduler's Chain and rate-based strategies read each task's virtual
// node — output counts for selectivity, the measured service time
// (ProcessingCost) for cost — and the optimizer's cost model reads a
// stream's or running subplan's output count over the block clock for its
// rate. The memory manager asks each operator for its MemoryUsage. The
// monitor tool (cmd/pipesmon) and the scrape endpoint show the views.
//
// The metric composition of a monitored node can be altered at runtime
// with SetKinds, matching the paper's requirement.
package metadata

import (
	"sort"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
)

// Kind identifies one secondary-metadata quantity.
type Kind string

// The supported metadata kinds.
const (
	InputCount      Kind = "input_count"
	OutputCount     Kind = "output_count"
	InputRate       Kind = "input_rate"  // elements/second, EWMA-smoothed
	OutputRate      Kind = "output_rate" // elements/second, EWMA-smoothed
	Selectivity     Kind = "selectivity" // outputs per input
	Subscribers     Kind = "subscribers"
	MemoryUsage     Kind = "memory_usage" // bytes, if the node reports it
	InputRateAvg    Kind = "input_rate_avg"
	InputRateVar    Kind = "input_rate_var"
	OutputRateAvg   Kind = "output_rate_avg"
	OutputRateVar   Kind = "output_rate_var"
	ProcessingCost  Kind = "processing_cost_ns" // mean ns spent per input element
	QueueLen        Kind = "queue_len"          // buffered elements, for Buffer nodes
	LastInputStamp  Kind = "last_input_ts"      // application time of last input
	LastOutputStamp Kind = "last_output_ts"

	// Latency-distribution kinds, backed by the block's lock-free
	// histograms. Service time is the wall time the operator spends
	// processing one input element (measured on the 1-in-16 element
	// stride); queue time is the hand-off delay between the upstream
	// publish and this operator's ProcessBatch (measured on traced
	// elements, i.e. sampled by the tracer).
	ServiceTimeP50 Kind = "service_time_p50_ns"
	ServiceTimeP95 Kind = "service_time_p95_ns"
	ServiceTimeP99 Kind = "service_time_p99_ns"
	ServiceTimeMax Kind = "service_time_max_ns"
	QueueTimeP50   Kind = "queue_time_p50_ns"
	QueueTimeP95   Kind = "queue_time_p95_ns"
	QueueTimeP99   Kind = "queue_time_p99_ns"
	QueueTimeMax   Kind = "queue_time_max_ns"
)

// kinds lists every kind; a kind's index is its bit in a block's views.
var kinds = [...]Kind{
	InputCount, OutputCount, InputRate, OutputRate, Selectivity,
	Subscribers, MemoryUsage, InputRateAvg, InputRateVar, OutputRateAvg,
	OutputRateVar, ProcessingCost, QueueLen, LastInputStamp, LastOutputStamp,
	ServiceTimeP50, ServiceTimeP95, ServiceTimeP99, ServiceTimeMax,
	QueueTimeP50, QueueTimeP95, QueueTimeP99, QueueTimeMax,
}

var kindBit = func() map[Kind]uint32 {
	m := make(map[Kind]uint32, len(kinds))
	for i, k := range kinds {
		m[k] = 1 << uint(i)
	}
	return m
}()

// AllKinds lists every supported kind, sorted, for tools that enumerate.
func AllKinds() []Kind {
	ks := append([]Kind(nil), kinds[:]...)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// viewsOf is the views mask exposing exactly ks.
func viewsOf(ks ...Kind) uint32 {
	var v uint32
	for _, k := range ks {
		v |= kindBit[k]
	}
	return v
}

// The kinds that need strided work on the frame path; counts, stamps and
// everything read off the node itself need none.
var (
	allViews     = viewsOf(kinds[:]...)
	inRateViews  = viewsOf(InputRate, InputRateAvg, InputRateVar)
	outRateViews = viewsOf(OutputRate, OutputRateAvg, OutputRateVar)
	timingViews  = viewsOf(ProcessingCost, ServiceTimeP50, ServiceTimeP95, ServiceTimeP99, ServiceTimeMax)
)

// workOf is the frame-path work a views mask needs.
func workOf(views uint32) uint32 {
	var w uint32
	if views&inRateViews != 0 {
		w |= flight.WorkInRate
	}
	if views&outRateViews != 0 {
		w |= flight.WorkOutRate
	}
	if views&timingViews != 0 {
		w |= flight.WorkTiming
	}
	return w
}

// FakeClock is the manually advanced telemetry.Clock, reachable from here
// for tests that pin a monitor's rates with WithClock.
type FakeClock = telemetry.FakeClock

// NewFakeClock returns a fake clock starting at start.
var NewFakeClock = telemetry.NewFakeClock

// MemoryReporter is implemented by nodes that can report their memory
// footprint (stateful operators; see internal/memory).
type MemoryReporter interface {
	MemoryUsage() int
}

// instrumented is a pipe that carries an instrumentation block: anything
// embedding pubsub.SourceBase.
type instrumented interface {
	pubsub.Pipe
	SetFlightRef(*flight.OpRef)
	FlightRef() *flight.OpRef
}

// Monitored is the read-side handle over one monitored pipe: it holds no
// statistics of its own, every Get is computed from the pipe's block (and,
// for Subscribers, MemoryUsage and QueueLen, asked of the pipe) at call
// time. Handles are cheap values; two handles over one pipe read and alter
// the same composition.
type Monitored struct {
	inner pubsub.Pipe
	ref   *flight.OpRef
}

// Option configures Monitor.
type Option func(*options)

type options struct {
	views  uint32
	clock  telemetry.Clock
	tracer *telemetry.Tracer
}

// WithClock substitutes the block's time source (tests use FakeClock).
func WithClock(c telemetry.Clock) Option { return func(o *options) { o.clock = c } }

// WithTracer enables element-level tracing at the pipe, at frame
// granularity: a traced input gets an "in" span when its frame is
// delivered, a traced output an "out" span when its frame is published.
// The operator carries each trace from input to output (OBSERVABILITY.md,
// "Element tracing"); the pipe only records.
func WithTracer(t *telemetry.Tracer) Option { return func(o *options) { o.tracer = t } }

// WithKinds restricts the exposed metrics to the given kinds. By default
// all kinds are active.
func WithKinds(ks ...Kind) Option {
	return func(o *options) { o.views = viewsOf(ks...) }
}

// Monitor turns secondary metadata on for inner and returns its handle.
// The pipe keeps its place in the graph — wire inner itself. Its block is
// the one already attached (a flight recorder's, so the monitor and the
// recorder share every count) or a fresh recorder-less one.
func Monitor(inner pubsub.Pipe, opts ...Option) *Monitored {
	n, ok := inner.(instrumented)
	if !ok {
		panic("metadata: " + inner.Name() + " carries no instrumentation block (embed pubsub.SourceBase)")
	}
	o := options{views: allViews}
	for _, opt := range opts {
		opt(&o)
	}
	ref := n.FlightRef()
	if ref == nil {
		ref = flight.NewRef(inner.Name())
		n.SetFlightRef(ref)
	}
	if o.clock != nil {
		ref.SetClock(o.clock)
	}
	work := workOf(o.views)
	if o.tracer != nil {
		work |= flight.WorkTrace
	}
	ref.SetViews(o.views, work)
	return &Monitored{inner: inner, ref: ref}
}

// NewMonitored is Monitor for graph-wiring call sites that thread a pipe
// through a chain of constructors: it returns inner, now monitored. Get
// the handle with Of.
func NewMonitored(inner pubsub.Pipe, opts ...Option) pubsub.Pipe {
	Monitor(inner, opts...)
	return inner
}

// Of returns the handle over a monitored node, nil when n is not a pipe
// or exposes no kind.
func Of(n pubsub.Node) *Monitored {
	p, ok := n.(instrumented)
	if !ok {
		return nil
	}
	ref := p.FlightRef()
	if ref == nil || ref.Views() == 0 {
		return nil
	}
	return &Monitored{inner: p, ref: ref}
}

// Inner returns the monitored pipe.
func (m *Monitored) Inner() pubsub.Pipe { return m.inner }

// SetKinds replaces the active metric composition at runtime.
func (m *Monitored) SetKinds(ks ...Kind) {
	views := viewsOf(ks...)
	m.ref.SetViews(views, workOf(views)|m.ref.Work()&flight.WorkTrace)
}

// Kinds returns the active metric kinds, sorted.
func (m *Monitored) Kinds() []Kind {
	views := m.ref.Views()
	all := AllKinds()
	out := all[:0] // filters in place
	for _, k := range all {
		if views&kindBit[k] != 0 {
			out = append(out, k)
		}
	}
	return out
}

// Get returns the current value of one metric and whether that kind is
// active and defined for this node.
func (m *Monitored) Get(k Kind) (float64, bool) {
	if m.ref.Views()&kindBit[k] == 0 {
		return 0, false
	}
	switch k {
	case InputCount:
		return float64(m.ref.Inputs()), true
	case OutputCount:
		return float64(m.ref.Elements()), true
	case InputRate:
		return m.ref.InRate().Value, true
	case OutputRate:
		return m.ref.OutRate().Value, true
	case InputRateAvg:
		return m.ref.InRate().Mean, true
	case InputRateVar:
		return m.ref.InRate().Variance, true
	case OutputRateAvg:
		return m.ref.OutRate().Mean, true
	case OutputRateVar:
		return m.ref.OutRate().Variance, true
	case Selectivity:
		in := m.ref.Inputs()
		if in == 0 {
			return 0, false
		}
		return float64(m.ref.Elements()) / float64(in), true
	case Subscribers:
		return float64(len(m.inner.Subscriptions())), true
	case MemoryUsage:
		if r, ok := m.inner.(MemoryReporter); ok {
			return float64(r.MemoryUsage()), true
		}
	case QueueLen:
		if b, ok := m.inner.(interface{ Len() int }); ok {
			return float64(b.Len()), true
		}
	case ProcessingCost:
		return m.ref.Cost(), true
	case LastInputStamp:
		return float64(m.ref.LastIn()), true
	case LastOutputStamp:
		return float64(m.ref.LastOut()), true
	case ServiceTimeP50:
		return histQuantile(m.ref.ServiceHistogram(), 0.5)
	case ServiceTimeP95:
		return histQuantile(m.ref.ServiceHistogram(), 0.95)
	case ServiceTimeP99:
		return histQuantile(m.ref.ServiceHistogram(), 0.99)
	case ServiceTimeMax:
		return histMax(m.ref.ServiceHistogram())
	case QueueTimeP50:
		return histQuantile(m.ref.QueueHistogram(), 0.5)
	case QueueTimeP95:
		return histQuantile(m.ref.QueueHistogram(), 0.95)
	case QueueTimeP99:
		return histQuantile(m.ref.QueueHistogram(), 0.99)
	case QueueTimeMax:
		return histMax(m.ref.QueueHistogram())
	}
	return 0, false
}

// histQuantile reads a quantile from h; undefined until an observation
// lands.
func histQuantile(h *telemetry.Histogram, q float64) (float64, bool) {
	if h.Count() == 0 {
		return 0, false
	}
	return float64(h.Quantile(q)), true
}

func histMax(h *telemetry.Histogram) (float64, bool) {
	if h.Count() == 0 {
		return 0, false
	}
	return float64(h.Max()), true
}

// ServiceTimeHistogram exposes the block's service-time histogram for the
// telemetry registry.
func (m *Monitored) ServiceTimeHistogram() *telemetry.Histogram { return m.ref.ServiceHistogram() }

// QueueTimeHistogram exposes the block's queue-time histogram for the
// telemetry registry.
func (m *Monitored) QueueTimeHistogram() *telemetry.Histogram { return m.ref.QueueHistogram() }

// Snapshot returns every active, defined metric.
func (m *Monitored) Snapshot() map[Kind]float64 {
	out := map[Kind]float64{}
	for _, k := range m.Kinds() {
		if v, ok := m.Get(k); ok {
			out[k] = v
		}
	}
	return out
}
