package flight

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// strideEvery is the engine's one sampling stride. Counts and application
// stamps are exact for every frame; whatever needs a clock reading, a
// histogram or a ring slot happens on one occurrence in strideEvery — of
// elements for the rate estimators and the service timer (ordinals 1, 17,
// 33, …, whatever the frame size), of calls for frame occupancy and
// enqueue depth. The estimators compensate (a rate sample stands for the
// whole gap since the last one); bench/'s metadata.monitored_ratio and
// telemetry.flight_ratio cells measure what is left: clock reads and
// estimator locks per element were most of the monitoring cost.
const strideEvery = 16

// Work bits: what a block does on the frame path beyond its exact counts
// and stamps. The reader (internal/metadata) derives them from the kinds
// it exposes; a block with no work set never reads a clock.
const (
	// WorkInRate feeds the input-rate estimator on the element stride.
	WorkInRate uint32 = 1 << iota
	// WorkOutRate feeds the output-rate estimator on the element stride.
	WorkOutRate
	// WorkTiming times the consumer's ProcessBatch on the element stride
	// (service-time histogram and the cost EWMA).
	WorkTiming
	// WorkTrace follows traced elements at frame granularity: an "in" hop
	// and the hand-off delay when their frame is delivered, an "out" hop
	// when a frame carrying them is published. Carrying the trace context
	// across the operator is the operator's job (temporal.Derive,
	// WithInterval or a trace slot in its state), never the block's.
	WorkTrace
)

// FrameSink is the consuming half of a subscription as Deliver needs it;
// every pubsub.BatchSink satisfies it.
type FrameSink interface {
	ProcessBatch(b temporal.Batch, input int)
}

// OpRef is one node's instrumentation block. pubsub.SourceBase carries it
// (SetFlightRef): TransferBatch runs Out on the publishing node's block and
// Deliver on each subscribed node's, so both sides of every operator are
// recorded at the one place all frames pass, with no extra node in the
// graph. Everything on the frame path is atomic or behind the stride; no
// call allocates. A recorded but unmonitored node pays two atomic adds per
// published frame and a load per side.
type OpRef struct {
	rec  *Recorder // nil: a block no recorder rings for (NewRef)
	idx  uint32
	name string

	// Out-side: frames the node published. frames doubles as the
	// occupancy stride, enqueues is the buffer-depth stride — one counter
	// per sampled surface, so two surfaces advanced in lockstep cannot
	// starve each other of stride hits.
	frames   atomic.Int64
	elems    atomic.Int64
	lastOut  atomic.Int64 // application time of the last published element (while views is set)
	enqueues atomic.Uint64
	occ      *telemetry.Histogram // frame occupancy, in elements
	depth    *telemetry.Histogram // buffer depth waterline, in work units

	// In-side: frames delivered to the node while views is set.
	inElems atomic.Int64
	lastIn  atomic.Int64

	// views is the reader's kind selection, opaque here (internal/metadata
	// owns the bit per kind) except that zero means nobody reads this block
	// as metadata: the in-side and the stamps then stay untouched. work is
	// what the selection costs on the frame path beyond them.
	views atomic.Uint32
	work  atomic.Uint32

	clock   atomic.Pointer[telemetry.Clock] // overrides the recorder's
	samples atomic.Pointer[samples]         // allocated by the first SetViews that sets work
	nowNano atomic.Int64                    // clock reading of the last sampled delivery, reused by Out
	costNS  atomic.Uint64                   // math.Float64bits of the EWMA service ns/element
}

// samples is the strided in-side state, allocated only once a view needs
// it: a recorded but unmonitored node carries none.
type samples struct {
	inRate, outRate rateEstimator
	svc, queue      telemetry.Histogram
}

// none is what a block that samples nothing reads as.
var none samples

// NewRef returns a block outside any recorder: counts, stamps and views
// work, nothing reaches a ring or the pipes_edge_* export. It is what
// monitoring a node of an unrecorded graph attaches.
func NewRef(name string) *OpRef {
	return &OpRef{name: name, occ: telemetry.NewHistogram(), depth: telemetry.NewHistogram()}
}

// Name returns the node name the block was interned under.
func (o *OpRef) Name() string { return o.name }

// SetClock injects the block's time source (nil restores the recorder's).
func (o *OpRef) SetClock(c telemetry.Clock) {
	if c == nil {
		o.clock.Store(nil)
		return
	}
	o.clock.Store(&c)
}

func (o *OpRef) now() time.Time {
	if c := o.clock.Load(); c != nil {
		return (*c).Now()
	}
	return o.rec.now()
}

// NowNS reads the block's clock (for hold-start stamps).
func (o *OpRef) NowNS() int64 { return o.now().UnixNano() }

// SetViews replaces the reader's selection and the frame-path work it
// implies. Safe on a live block: the paper's "metric composition alterable
// at runtime".
func (o *OpRef) SetViews(views, work uint32) {
	if work != 0 && o.samples.Load() == nil {
		o.samples.CompareAndSwap(nil, new(samples))
	}
	o.views.Store(views)
	o.work.Store(work)
}

// Views returns the reader's selection (0: nobody reads this block as
// metadata).
func (o *OpRef) Views() uint32 { return o.views.Load() }

// Work returns the current work bits.
func (o *OpRef) Work() uint32 { return o.work.Load() }

// Frames returns the total frames published by the node.
func (o *OpRef) Frames() int64 { return o.frames.Load() }

// Elements returns the total elements published by the node.
func (o *OpRef) Elements() int64 { return o.elems.Load() }

// Inputs returns the elements delivered to the node since a view was set.
func (o *OpRef) Inputs() int64 { return o.inElems.Load() }

// LastIn and LastOut return the application time of the last element
// delivered and published.
func (o *OpRef) LastIn() int64  { return o.lastIn.Load() }
func (o *OpRef) LastOut() int64 { return o.lastOut.Load() }

// Cost returns the EWMA of the sampled service time, ns per element.
func (o *OpRef) Cost() float64 { return math.Float64frombits(o.costNS.Load()) }

// InRate and OutRate return the rate estimators' current readings.
func (o *OpRef) InRate() Rate  { return o.read().inRate.read() }
func (o *OpRef) OutRate() Rate { return o.read().outRate.read() }

// ServiceHistogram returns the sampled service time (consumer ProcessBatch
// duration per element, ns); QueueHistogram the hand-off delay of traced
// elements (upstream publish to delivery, ns). Both read empty until a
// view asks for them.
func (o *OpRef) ServiceHistogram() *telemetry.Histogram { return &o.read().svc }
func (o *OpRef) QueueHistogram() *telemetry.Histogram   { return &o.read().queue }

func (o *OpRef) read() *samples {
	if s := o.samples.Load(); s != nil {
		return s
	}
	return &none
}

// OccupancyHistogram returns the frame-occupancy histogram (elements per
// frame).
func (o *OpRef) OccupancyHistogram() *telemetry.Histogram { return o.occ }

// DepthHistogram returns the buffer-depth waterline histogram (work units
// observed at enqueue/drain).
func (o *OpRef) DepthHistogram() *telemetry.Histogram { return o.depth }

// record appends a ring event attributed to this block, if a recorder
// rings for it.
func (o *OpRef) record(k Kind, a, b, c int64) {
	if o.rec != nil {
		o.rec.record(o, k, o.NowNS(), a, b, c)
	}
}

// strideHits reports how many element-stride samples land in a run of n
// elements counted after prev earlier ones: the stride fires on (1-based)
// elements 1, 1+strideEvery, 1+2·strideEvery, … — so a frame of any size
// advances it as if delivered element by element.
func strideHits(prev, n int64) int64 {
	upTo := func(x int64) int64 {
		if x < 0 {
			return 0
		}
		return x/strideEvery + 1
	}
	return upTo(prev+n-1) - upTo(prev-1)
}

// Out records the non-empty frame b published by the node. The counts are
// exact; occupancy and the ring event are sampled one frame in
// strideEvery. A block somebody reads as metadata (views set) also keeps
// the stamp, exactly, and the output rate on the element stride, stamped
// with the clock reading of the last sampled delivery (outputs are emitted
// synchronously inside the operator, so the skew is bounded by one
// stride).
func (o *OpRef) Out(b temporal.Batch) {
	n := int64(len(b))
	prev := o.elems.Add(n) - n
	if o.frames.Add(1)%strideEvery == 0 {
		o.occ.Observe(n)
		o.record(KindFrame, n, 0, 0)
	}
	if o.views.Load() == 0 {
		return
	}
	o.lastOut.Store(int64(b[n-1].Start))
	work := o.work.Load()
	if work&WorkOutRate != 0 {
		if hits := strideHits(prev, n); hits > 0 {
			o.samples.Load().outRate.observe(time.Unix(0, o.nowNano.Load()), float64(hits*strideEvery))
		}
	}
	if work&WorkTrace != 0 {
		for _, e := range b {
			if tr := telemetry.FromElement(e); tr != nil {
				tr.Hop(o.name, "out", e.Start)
			}
		}
	}
}

// Deliver hands the non-empty frame b to sink — the node this block
// belongs to. A block nobody reads as metadata only forwards; otherwise it
// records the frame on the way: the input count and stamp exactly, the
// input rate and the service time (the whole-frame measurement apportioned
// per element) on the element stride, and the "in" hop of every traced
// element before the operator sees the frame. One clock reading per
// sampled delivery serves the rate estimator, the service timer and, via
// nowNano, Out's rate estimator.
func (o *OpRef) Deliver(sink FrameSink, b temporal.Batch, input int) {
	if o.views.Load() == 0 {
		sink.ProcessBatch(b, input)
		return
	}
	n := int64(len(b))
	prev := o.inElems.Add(n) - n
	o.lastIn.Store(int64(b[n-1].Start))
	work := o.work.Load()
	if work == 0 {
		sink.ProcessBatch(b, input)
		return
	}
	s := o.samples.Load()
	hits := strideHits(prev, n)
	var now time.Time
	if hits > 0 && work&(WorkInRate|WorkOutRate|WorkTiming) != 0 {
		now = o.now()
		o.nowNano.Store(now.UnixNano())
		if work&WorkInRate != 0 {
			// One folded observation stands for every stride sample the
			// frame contains.
			s.inRate.observe(now, float64(hits*strideEvery))
		}
	}
	if work&WorkTrace != 0 {
		for _, e := range b {
			// The gap since the previous hop is the hand-off (queue) delay
			// between the upstream publish and this operator.
			if tr := telemetry.FromElement(e); tr != nil {
				if gap := tr.Hop(o.name, "in", e.Start); gap > 0 {
					s.queue.Observe(gap)
				}
			}
		}
	}
	sink.ProcessBatch(b, input)
	if hits > 0 && work&WorkTiming != 0 {
		perElem := o.now().Sub(now).Nanoseconds() / n
		s.svc.ObserveN(perElem, uint64(hits))
		// EWMA update; a lost update under concurrent writers only drops
		// one sample from the smoothing.
		cost := float64(perElem)
		if old := o.Cost(); old != 0 {
			cost = 0.2*cost + 0.8*old
		}
		o.costNS.Store(math.Float64bits(cost))
	}
}

// Enqueue records n work units entering a buffer whose depth is now d.
// Called per frame, which for one-element frames is per element, so
// everything — histogram, clock and ring — hides behind the stride; the
// off-stride cost is one atomic add.
func (o *OpRef) Enqueue(n, d int) {
	if o.enqueues.Add(1)%strideEvery != 0 {
		return
	}
	o.depth.Observe(int64(d))
	o.record(KindEnqueue, int64(n), int64(d), 0)
}

// Drained records one scheduler drain of n work units leaving a buffer
// whose depth is now d. Drains are already batched (one call per
// activation), so the event is unconditional.
func (o *OpRef) Drained(n, d int) {
	o.depth.Observe(int64(d))
	o.record(KindDrain, int64(n), int64(d), 0)
}

// Phase records one rare, unconditional event (barrier phases, replays,
// sheds, steals) attributed to this block. A nil block records nothing.
func (o *OpRef) Phase(k Kind, a, b, c int64) {
	if o != nil {
		o.record(k, a, b, c)
	}
}

// Rate is one reading of a rate estimator, in elements per second.
type Rate struct {
	Value    float64 // EWMA-smoothed instantaneous rate
	Mean     float64
	Variance float64
}

// rateEstimator EWMA-smooths instantaneous event rates and tracks their
// mean and variance with an inline Welford recurrence (the same online
// aggregation the aggregate package implements, unboxed: going through
// the Aggregate interface costs one float64 allocation per Insert, which
// dominated the per-element overhead that metadata.monitored_ratio now
// measures). It carries its own lock, taken on stride samples only.
type rateEstimator struct {
	mu   sync.Mutex
	last time.Time
	rate float64
	n    float64
	avg  float64
	m2   float64
}

// observe folds one stride sample into the estimator. weight is the number
// of elements the sample stands for: the estimator sees every weight-th
// element, so the instantaneous rate over the gap is weight/dt.
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
		r.rate = 0.2*inst + 0.8*r.rate
	}
	r.n++
	delta := inst - r.avg
	r.avg += delta / r.n
	r.m2 += delta * (inst - r.avg)
}

func (r *rateEstimator) read() Rate {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Rate{Value: r.rate, Mean: r.avg}
	if r.n > 0 {
		out.Variance = r.m2 / r.n
	}
	return out
}
