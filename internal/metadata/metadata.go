// Package metadata implements PIPES' secondary-metadata framework: a
// configurable decorator that wraps arbitrary nodes of a running query
// graph and maintains iteratively computed inferential estimators —
// input/output rates, selectivity, subscriber count, memory usage, and
// averages/variances of those quantities — in the style of online
// aggregation. The runtime components (scheduler, memory manager,
// optimizer) parameterise their strategies with this metadata, and the
// monitor tool (cmd/pipesmon) visualises it.
//
// The metric composition of a decorated node can be altered at runtime
// with SetKinds, matching the paper's requirement.
package metadata

import (
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
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

	// Latency-distribution kinds, backed by the telemetry layer's
	// lock-free histograms. Service time is the wall time the operator
	// spends processing one input element (measured on the 1-in-16
	// maintenance sample, see maintainEvery); queue time is the hand-off
	// delay between the upstream publish and this operator's Process
	// (measured on traced elements, i.e. sampled by the tracer).
	ServiceTimeP50 Kind = "service_time_p50_ns"
	ServiceTimeP95 Kind = "service_time_p95_ns"
	ServiceTimeP99 Kind = "service_time_p99_ns"
	ServiceTimeMax Kind = "service_time_max_ns"
	QueueTimeP50   Kind = "queue_time_p50_ns"
	QueueTimeP95   Kind = "queue_time_p95_ns"
	QueueTimeP99   Kind = "queue_time_p99_ns"
	QueueTimeMax   Kind = "queue_time_max_ns"
)

// AllKinds lists every supported kind, sorted, for tools that enumerate.
func AllKinds() []Kind {
	ks := []Kind{
		InputCount, OutputCount, InputRate, OutputRate, Selectivity,
		Subscribers, MemoryUsage, InputRateAvg, InputRateVar, OutputRateAvg,
		OutputRateVar, ProcessingCost, QueueLen, LastInputStamp, LastOutputStamp,
		ServiceTimeP50, ServiceTimeP95, ServiceTimeP99, ServiceTimeMax,
		QueueTimeP50, QueueTimeP95, QueueTimeP99, QueueTimeMax,
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Clock abstracts wall time so estimators are deterministic under test.
type Clock interface {
	Now() time.Time
}

// SystemClock reads the real time.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock returns a fake clock starting at start.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{t: start} }

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// MemoryReporter is implemented by nodes that can report their memory
// footprint (stateful operators; see internal/memory).
type MemoryReporter interface {
	MemoryUsage() int
}

// rateEstimator EWMA-smooths instantaneous event rates and tracks their
// mean and variance with an inline Welford recurrence (the same online
// aggregation the aggregate package implements, unboxed: going through
// the Aggregate interface costs one float64 allocation per Insert, which
// E18 showed dominating the decorator's per-element overhead). It carries
// its own lock so the decorator's Process path never serialises on the
// shared stats mutex.
type rateEstimator struct {
	mu    sync.Mutex
	alpha float64
	last  time.Time
	rate  float64
	n     float64
	avg   float64
	m2    float64
}

func newRateEstimator(alpha float64) *rateEstimator {
	return &rateEstimator{alpha: alpha}
}

// observe folds one maintenance sample into the estimator. weight is the
// number of elements the sample stands for: with strided maintenance the
// estimator sees every weight-th element, so the instantaneous rate over
// the gap is weight/dt.
func (r *rateEstimator) observe(now time.Time, weight float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.last.IsZero() {
		r.last = now
		return
	}
	dt := now.Sub(r.last).Seconds()
	r.last = now
	if dt <= 0 {
		return
	}
	inst := weight / dt
	if r.rate == 0 {
		r.rate = inst
	} else {
		r.rate = r.alpha*inst + (1-r.alpha)*r.rate
	}
	r.n++
	delta := inst - r.avg
	r.avg += delta / r.n
	r.m2 += delta * (inst - r.avg)
}

func (r *rateEstimator) value() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rate
}

func (r *rateEstimator) mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.avg
}

func (r *rateEstimator) variance() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	return r.m2 / r.n
}

// Monitored decorates a pipe with secondary metadata. It interposes on the
// sink side (counting/costing inputs) and taps the source side (counting
// outputs); external subscribers attach to the decorator, which re-publishes
// the inner node's output unchanged.
type Monitored struct {
	pubsub.SourceBase
	inner pubsub.Pipe
	clock Clock

	// frames is the inner node's frame-consuming identity (pubsub.Frames),
	// resolved once like a subscription's.
	frames pubsub.BatchSink

	// svcHist and queueHist are the decorator's latency histograms:
	// service time (inner ProcessBatch duration per element, sampled
	// 1-in-maintainEvery
	// while a service/processing-cost kind is active) and queue time
	// (upstream publish to ProcessBatch hand-off delay, via traced
	// elements).
	svcHist   *telemetry.Histogram
	queueHist *telemetry.Histogram

	// tracer, when set, enables element tracing. Sampled (traced) inputs
	// take traceMu while they are inside the inner operator and publish
	// their context in active, so the output tap can attribute fresh
	// elements built by the inner operator (map/aggregate/join) to the
	// input's trace. Unsampled inputs stay lock-free: under the
	// scheduler's single-owner activation contract an operator processes
	// one frame at a time, so the attribution is exact; callers that drive
	// one operator from several goroutines directly may, at worst,
	// attribute a sampled span to a neighbouring element.
	tracer     *telemetry.Tracer
	traceMu    sync.Mutex
	active     atomic.Pointer[telemetry.Trace]
	tapScratch temporal.Batch // traceOut's re-attachment frame

	// Hot-path state is atomic so ProcessBatch and the tap never take a lock
	// unless a rate estimator is active; flags caches the kind set as a
	// bitmask (map lookups per element showed up in E18).
	flags    atomic.Uint32
	inCount  atomic.Int64
	outCount atomic.Int64
	lastIn   atomic.Int64 // temporal.Time of last input
	lastOut  atomic.Int64
	costNS   atomic.Uint64 // math.Float64bits of the EWMA ns/element
	nowNano  atomic.Int64  // clock reading at last sampled ProcessBatch entry, reused by the tap

	inRate  *rateEstimator
	outRate *rateEstimator

	mu    sync.Mutex // guards kinds
	kinds map[Kind]bool
}

// Bits of the flags bitmask: which kind groups need per-element work.
const (
	flagInRate uint32 = 1 << iota
	flagOutRate
	flagTiming
)

// maintainEvery is the deterministic maintenance stride: counts and
// stamps are exact for every element, but clock readings, rate-estimator
// updates, service timing and the cost EWMA happen on one element in
// maintainEvery (the first, then every stride-th). The estimators
// compensate (rates weight inter-sample gaps by the stride; histogram
// quantiles and EWMAs are statistics either way), and E18 measures the
// difference: per-element clock reads and estimator locks were most of
// the decorator's overhead.
const maintainEvery = 16

// recomputeFlags refreshes the hot-path bitmask from the kinds map.
// Callers hold m.mu (or are the constructor).
func (m *Monitored) recomputeFlags() {
	var f uint32
	if m.kinds[InputRate] || m.kinds[InputRateAvg] || m.kinds[InputRateVar] {
		f |= flagInRate
	}
	if m.kinds[OutputRate] || m.kinds[OutputRateAvg] || m.kinds[OutputRateVar] {
		f |= flagOutRate
	}
	if m.kinds[ProcessingCost] || m.kinds[ServiceTimeP50] || m.kinds[ServiceTimeP95] ||
		m.kinds[ServiceTimeP99] || m.kinds[ServiceTimeMax] {
		f |= flagTiming
	}
	m.flags.Store(f)
}

// Option configures a Monitored decorator.
type Option func(*Monitored)

// WithClock substitutes the time source (tests use FakeClock).
func WithClock(c Clock) Option { return func(m *Monitored) { m.clock = c } }

// WithTracer enables element-level tracing: traced inputs get an "in"
// span, outputs an "out" span, and trace contexts are re-attached across
// operators that construct fresh elements. Tracing mode serialises the
// decorator's traced elements (see OBSERVABILITY.md for the hand-off
// contract).
func WithTracer(t *telemetry.Tracer) Option { return func(m *Monitored) { m.tracer = t } }

// WithKinds restricts the computed metrics to the given kinds. By default
// all kinds are active.
func WithKinds(kinds ...Kind) Option {
	return func(m *Monitored) {
		m.kinds = make(map[Kind]bool, len(kinds))
		for _, k := range kinds {
			m.kinds[k] = true
		}
	}
}

// NewMonitored wraps inner with a metadata decorator. The decorator is a
// Pipe: route upstream subscriptions to it and subscribe downstream sinks
// to it.
func NewMonitored(inner pubsub.Pipe, opts ...Option) *Monitored {
	m := &Monitored{
		SourceBase: pubsub.NewSourceBase(inner.Name() + "~mon"),
		inner:      inner,
		clock:      SystemClock{},
		inRate:     newRateEstimator(0.2),
		outRate:    newRateEstimator(0.2),
		svcHist:    telemetry.NewHistogram(),
		queueHist:  telemetry.NewHistogram(),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.kinds == nil {
		m.kinds = map[Kind]bool{}
		for _, k := range AllKinds() {
			m.kinds[k] = true
		}
	}
	m.recomputeFlags()
	frames, err := pubsub.Frames(inner)
	if err != nil {
		panic("metadata: " + err.Error())
	}
	m.frames = frames
	inner.Subscribe((*monitorTap)(m), 0)
	return m
}

// maintainHitsIn reports how many maintenance-stride samples land in a
// run of frameLen elements counted after prev earlier ones: the stride
// fires on (1-based) elements 1, 1+maintainEvery, 1+2·maintainEvery, …
// — so a frame of any size advances the stride as if delivered element by
// element.
func maintainHitsIn(prev, frameLen int64) int64 {
	hitsUpTo := func(x int64) int64 {
		if x < 0 {
			return 0
		}
		return x/maintainEvery + 1
	}
	return hitsUpTo(prev+frameLen-1) - hitsUpTo(prev-1)
}

// monitorTap is the internal sink the decorator plants on the inner node's
// output side.
type monitorTap Monitored

// Name implements pubsub.Node.
func (t *monitorTap) Name() string { return (*Monitored)(t).Name() + "~tap" }

// ProcessBatch implements pubsub.BatchSink: output counting is
// per-element exact while the frame passes through whole.
func (t *monitorTap) ProcessBatch(b temporal.Batch, _ int) {
	m := (*Monitored)(t)
	frame := int64(len(b))
	prev := m.outCount.Add(frame) - frame
	m.lastOut.Store(int64(b[len(b)-1].Start))
	if maintain := maintainHitsIn(prev, frame); maintain > 0 && m.flags.Load()&flagOutRate != 0 {
		// Outputs are stamped with the clock reading taken at the last
		// sampled ProcessBatch entry: outputs are emitted synchronously
		// inside the inner operator, so the skew is bounded by one
		// maintenance stride.
		m.outRate.observe(time.Unix(0, m.nowNano.Load()), float64(maintain*maintainEvery))
	}
	if m.tracer != nil {
		b = m.traceOut(b)
	}
	m.TransferBatch(b)
}

// traceOut records the "out" hop of every traced element of an output
// frame. While a traced input is inside the inner operator (active is
// non-nil only then), the fresh elements the operator built from it
// (map/aggregate/join) get its trace re-attached — into tap-owned scratch,
// since the frame is borrowed. The inner operator publishes serially, so
// the scratch needs no lock.
func (m *Monitored) traceOut(b temporal.Batch) temporal.Batch {
	act := m.active.Load()
	if act != nil {
		m.tapScratch = append(m.tapScratch[:0], b...)
		b = m.tapScratch
	}
	for i, e := range b {
		if tr := telemetry.FromElement(e); tr != nil {
			// The inner operator forwarded the traced element itself.
			tr.Hop(m.inner.Name(), "out", e.Start)
		} else if act != nil {
			b[i] = telemetry.Attach(e, act)
			act.Hop(m.inner.Name(), "out", e.Start)
		}
	}
	return b
}

// Done implements pubsub.Sink.
func (t *monitorTap) Done(_ int) { (*Monitored)(t).SignalDone() }

// HandleControl implements pubsub.ControlSink: control elements leaving
// the inner node exit the decorator unchanged, keeping their position in
// the re-published stream.
func (t *monitorTap) HandleControl(c pubsub.Control, _ int) {
	(*Monitored)(t).TransferControl(c)
}

// Inner returns the decorated pipe.
func (m *Monitored) Inner() pubsub.Pipe { return m.inner }

// MemoryUsage delegates to the inner node so decoration stays transparent
// to the memory manager.
func (m *Monitored) MemoryUsage() int {
	if r, ok := m.inner.(MemoryReporter); ok {
		return r.MemoryUsage()
	}
	return 0
}

// ShedBytes delegates load shedding to the inner node.
func (m *Monitored) ShedBytes(n int) int {
	if s, ok := m.inner.(interface{ ShedBytes(int) int }); ok {
		return s.ShedBytes(n)
	}
	return 0
}

// Shrink delegates window shrinking to the inner node.
func (m *Monitored) Shrink(factor float64) {
	if s, ok := m.inner.(interface{ Shrink(float64) }); ok {
		s.Shrink(factor)
	}
}

// ProcessBatch implements pubsub.BatchSink: record, optionally time, and
// forward. Counts, stamps and selectivity are per-element exact; rate
// estimators and the service timer advance on the 1-in-maintainEvery
// element stride whatever the frame size, with the whole-frame
// measurement apportioned per element.
func (m *Monitored) ProcessBatch(b temporal.Batch, input int) {
	if len(b) == 0 {
		return
	}
	flags := m.flags.Load()
	frame := int64(len(b))
	prev := m.inCount.Add(frame) - frame
	m.lastIn.Store(int64(b[len(b)-1].Start))

	// Maintenance sample? One clock reading then serves the input-rate
	// estimator, the service timer, and (via nowNano) the output tap's
	// rate estimator.
	maintain := maintainHitsIn(prev, frame)
	var now time.Time
	if maintain > 0 && flags&(flagInRate|flagOutRate|flagTiming) != 0 {
		now = m.clock.Now()
		m.nowNano.Store(now.UnixNano())
		if flags&flagInRate != 0 {
			// One folded observation stands for every stride sample the
			// frame contains.
			m.inRate.observe(now, float64(maintain*maintainEvery))
		}
	}

	if maintain > 0 && flags&flagTiming != 0 {
		start := now
		if _, sys := m.clock.(SystemClock); !sys {
			// Service time is real wall time even under a fake clock.
			start = time.Now()
		}
		m.deliver(b, input)
		perElem := time.Since(start).Nanoseconds() / frame
		m.svcHist.ObserveN(perElem, uint64(maintain))
		elapsed := float64(perElem)
		// EWMA update; a lost update under concurrent writers only drops
		// one sample from the smoothing.
		if old := math.Float64frombits(m.costNS.Load()); old == 0 {
			m.costNS.Store(math.Float64bits(elapsed))
		} else {
			m.costNS.Store(math.Float64bits(0.2*elapsed + 0.8*old))
		}
		return
	}
	m.deliver(b, input)
}

// deliver hands a frame to the inner operator. With tracing on, every
// traced element travels as its own one-element sub-frame, its context
// published in active for the tap while it is inside the operator; the
// untraced runs between them pass as sub-frames too (all views of the
// borrowed frame, which nests through synchronous hops).
func (m *Monitored) deliver(b temporal.Batch, input int) {
	if m.tracer == nil {
		m.frames.ProcessBatch(b, input)
		return
	}
	start := 0
	for i, e := range b {
		tr := telemetry.FromElement(e)
		if tr == nil {
			continue
		}
		if i > start {
			m.frames.ProcessBatch(b[start:i], input)
		}
		// The gap since the previous hop is the hand-off (queue) delay
		// between the upstream publish and this operator.
		if gap := tr.Hop(m.inner.Name(), "in", e.Start); gap > 0 {
			m.queueHist.Observe(gap)
		}
		// Traced inputs serialise with each other so two sampled elements
		// can't swap attributions.
		m.traceMu.Lock()
		m.active.Store(tr)
		m.frames.ProcessBatch(b[i:i+1], input)
		m.active.Store(nil)
		m.traceMu.Unlock()
		start = i + 1
	}
	if start < len(b) {
		m.frames.ProcessBatch(b[start:], input)
	}
}

// Done implements pubsub.Sink.
func (m *Monitored) Done(input int) {
	m.inner.Done(input)
}

// HandleControl implements pubsub.ControlSink: control elements (e.g.
// checkpoint barriers, see internal/ft) pass into the inner node in
// stream position; the tap re-publishes them on the way out. An inner
// node that is not control-aware is skipped — the control exits the
// decorator directly, preserving the contract that plain sinks never
// see controls.
func (m *Monitored) HandleControl(c pubsub.Control, input int) {
	if cs, ok := m.inner.(pubsub.ControlSink); ok {
		cs.HandleControl(c, input)
		return
	}
	m.TransferControl(c)
}

// BarrierGate implements pubsub.Gated by delegating to the inner node,
// so barrier alignment at a decorated multi-input operator holds and
// replays frames exactly as it would undecorated. Held frames are
// replayed through the decorator (the upstream subscription's sink),
// keeping the metadata counts exact across an alignment.
func (m *Monitored) BarrierGate() *pubsub.Gate {
	if g, ok := m.inner.(pubsub.Gated); ok {
		return g.BarrierGate()
	}
	return nil
}

// SetBarrierHooks delegates checkpoint hook installation to the inner
// node (see internal/ft), so a decorated operator can be registered with
// the checkpoint manager without unwrapping.
func (m *Monitored) SetBarrierHooks(save, ack func(pubsub.Barrier)) {
	if h, ok := m.inner.(interface {
		SetBarrierHooks(_, _ func(pubsub.Barrier))
	}); ok {
		h.SetBarrierHooks(save, ack)
	}
}

// SnapshotState delegates operator-state capture to the inner node
// (see internal/ft.StateSaver).
func (m *Monitored) SnapshotState() (func(*gob.Encoder) error, error) {
	if s, ok := m.inner.(interface {
		SnapshotState() (func(*gob.Encoder) error, error)
	}); ok {
		return s.SnapshotState()
	}
	return nil, fmt.Errorf("metadata: %s holds no serialisable state", m.inner.Name())
}

// LoadState delegates operator-state restoration to the inner node
// (see internal/ft.StateLoader).
func (m *Monitored) LoadState(dec *gob.Decoder) error {
	if l, ok := m.inner.(interface{ LoadState(*gob.Decoder) error }); ok {
		return l.LoadState(dec)
	}
	return fmt.Errorf("metadata: %s holds no serialisable state", m.inner.Name())
}

// SetKinds replaces the active metric composition at runtime.
func (m *Monitored) SetKinds(kinds ...Kind) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.kinds = make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		m.kinds[k] = true
	}
	m.recomputeFlags()
}

// Kinds returns the active metric kinds, sorted.
func (m *Monitored) Kinds() []Kind {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Kind, 0, len(m.kinds))
	for k := range m.kinds {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Get returns the current value of one metric and whether that kind is
// active and defined for this node.
//
// Kinds that delegate to the inner node (MemoryUsage, QueueLen,
// Subscribers) are computed WITHOUT holding the stats mutex: the inner
// node takes its own lock to answer, and it also holds that lock while
// flushing end-of-stream results through the tap back into recordOut —
// holding m.mu across the delegated call would be an ABBA deadlock.
func (m *Monitored) Get(k Kind) (float64, bool) {
	switch k {
	case Subscribers, MemoryUsage, QueueLen:
		m.mu.Lock()
		active := m.kinds[k]
		m.mu.Unlock()
		if !active {
			return 0, false
		}
		switch k {
		case Subscribers:
			return float64(len(m.Subscriptions())), true
		case MemoryUsage:
			if r, ok := m.inner.(MemoryReporter); ok {
				return float64(r.MemoryUsage()), true
			}
			return 0, false
		default: // QueueLen
			if b, ok := m.inner.(interface{ Len() int }); ok {
				return float64(b.Len()), true
			}
			return 0, false
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.kinds[k] {
		return 0, false
	}
	switch k {
	case InputCount:
		return float64(m.inCount.Load()), true
	case OutputCount:
		return float64(m.outCount.Load()), true
	case InputRate:
		return m.inRate.value(), true
	case OutputRate:
		return m.outRate.value(), true
	case InputRateAvg:
		return m.inRate.mean(), true
	case InputRateVar:
		return m.inRate.variance(), true
	case OutputRateAvg:
		return m.outRate.mean(), true
	case OutputRateVar:
		return m.outRate.variance(), true
	case Selectivity:
		in := m.inCount.Load()
		if in == 0 {
			return 0, false
		}
		return float64(m.outCount.Load()) / float64(in), true
	case ProcessingCost:
		return math.Float64frombits(m.costNS.Load()), true
	case LastInputStamp:
		return float64(m.lastIn.Load()), true
	case LastOutputStamp:
		return float64(m.lastOut.Load()), true
	case ServiceTimeP50:
		return histQuantile(m.svcHist, 0.5)
	case ServiceTimeP95:
		return histQuantile(m.svcHist, 0.95)
	case ServiceTimeP99:
		return histQuantile(m.svcHist, 0.99)
	case ServiceTimeMax:
		return histMax(m.svcHist)
	case QueueTimeP50:
		return histQuantile(m.queueHist, 0.5)
	case QueueTimeP95:
		return histQuantile(m.queueHist, 0.95)
	case QueueTimeP99:
		return histQuantile(m.queueHist, 0.99)
	case QueueTimeMax:
		return histMax(m.queueHist)
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

// ServiceTimeHistogram exposes the decorator's service-time histogram for
// the telemetry registry.
func (m *Monitored) ServiceTimeHistogram() *telemetry.Histogram { return m.svcHist }

// QueueTimeHistogram exposes the decorator's queue-time histogram for the
// telemetry registry.
func (m *Monitored) QueueTimeHistogram() *telemetry.Histogram { return m.queueHist }

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
