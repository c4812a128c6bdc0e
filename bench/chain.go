package main

import (
	"fmt"
	"math"
	"time"

	"pipes/internal/aggregate"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
	"pipes/internal/traffic"
)

// chain_replay: pre-generated traffic readings cycled with shifted
// timestamps through the hand-wired E20 chain
//
//	[boundary] → oakland-filter → kmh-map → moving-filter →
//	[boundary] → hov-filter → speed-map → 1-minute window →
//	global average → sink
//
// with no facade, no CQL and no flight recorder: pubsub, ops and the
// scheduler boundary do all the work. Phase A drives the batch lane at
// frame 64, phase B the scalar lane over the same input.

const (
	chainPool   = 1 << 18 // readings generated per seed
	chainCycles = 8       // pool replays per pass, timestamps shifted
	chainFrame  = 64
	chainWindow = 60_000
	// drainEvery is the element cadence of one boundary drain pass, the
	// same in both lanes.
	drainEvery = 256
)

// chainRef is what a correct pass delivers to the sink.
type chainRef struct {
	spans    int64   // elements the aggregate emits
	integral float64 // Σ value × validity over those elements
}

type chainInput struct {
	elems []temporal.Element
	pool  int // readings per replay
	ref   chainRef
}

// genReadings draws n readings for seed, in timestamp order.
func genReadings(seed int64, n int) []traffic.Reading {
	gen := traffic.NewGenerator(traffic.Config{Seed: seed, MaxReadings: n})
	out := make([]traffic.Reading, 0, n)
	for {
		r, ok := gen.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// newChainInput pre-generates one pass of input and its reference.
func newChainInput(seed int64, pool, cycles int) *chainInput {
	readings := genReadings(seed, pool)
	span := readings[len(readings)-1].Timestamp + 1
	in := &chainInput{elems: make([]temporal.Element, 0, pool*cycles), pool: len(readings)}
	for c := 0; c < cycles; c++ {
		shift := temporal.Time(c) * span
		for _, r := range readings {
			// Values are shared across cycles; the chain's maps copy
			// before they change anything.
			in.elems = append(in.elems, temporal.At(r, r.Timestamp+shift))
		}
	}
	in.ref = chainReference(in.elems)
	return in
}

// chainReference computes in plain Go what the chain must deliver: the
// global average of the surviving speeds over a sliding one-minute
// window, one span per interval between two consecutive boundaries
// (starts and ends of validity) during which the window is non-empty.
func chainReference(elems []temporal.Element) chainRef {
	type pt struct {
		t temporal.Time
		v float64
	}
	var live []pt // survivors, in start order
	for _, e := range elems {
		r := e.Value.(traffic.Reading)
		if r.Direction != traffic.DirOakland {
			continue
		}
		kmh := r.Speed * 1.609344
		if kmh < 8 || r.Lane != traffic.HOVLane {
			continue
		}
		live = append(live, pt{e.Start, kmh})
	}
	var ref chainRef
	var sum float64
	var n int64
	var lb temporal.Time
	head := 0 // next survivor to expire
	closeAt := func(b temporal.Time) {
		if n > 0 && lb < b {
			ref.spans++
			ref.integral += sum / float64(n) * float64(b-lb)
		}
	}
	expire := func(upTo temporal.Time) {
		for head < len(live) && live[head].t+chainWindow <= upTo {
			b := live[head].t + chainWindow
			closeAt(b)
			for head < len(live) && live[head].t+chainWindow == b {
				sum -= live[head].v
				n--
				head++
			}
			if n == 0 {
				sum = 0
			}
			lb = b
		}
	}
	for _, p := range live {
		expire(p.t)
		closeAt(p.t)
		sum += p.v
		n++
		lb = p.t
	}
	expire(temporal.MaxTime)
	return ref
}

// integralSink is the chain's terminal sink: it counts what arrives and
// integrates value × validity, the snapshot-invariant summary the
// reference is compared on.
type integralSink struct {
	count    int64
	integral float64
	done     bool
}

func (s *integralSink) Name() string { return "sink" }
func (s *integralSink) Process(e temporal.Element, _ int) {
	s.count++
	s.integral += e.Value.(float64) * float64(e.End-e.Start)
}
func (s *integralSink) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		s.count++
		s.integral += e.Value.(float64) * float64(e.End-e.Start)
	}
}
func (s *integralSink) Done(int) { s.done = true }

// failures counts how far the sink is from the reference: the count
// difference plus one for an aggregate mismatch.
func (s *integralSink) failures(ref chainRef) int64 {
	f := s.count - ref.spans
	if f < 0 {
		f = -f
	}
	if !s.done || !closeTo(s.integral, ref.integral) {
		f++
	}
	return f
}

// closeTo compares two float sums whose order of additions may differ.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// chainOps are the chain's operators, unwired.
type chainOps struct {
	f1, f2, f3 *ops.Filter
	m1, m2     *ops.Map
	w          *ops.TimeWindow
	agg        *ops.GroupBy
}

func newChainOps() chainOps {
	return chainOps{
		f1: ops.NewFilter("oakland", func(v any) bool {
			return v.(traffic.Reading).Direction == traffic.DirOakland
		}),
		m1: ops.NewMap("kmh", func(v any) any {
			r := v.(traffic.Reading)
			r.Speed *= 1.609344
			return r
		}),
		f2: ops.NewFilter("moving", func(v any) bool {
			return v.(traffic.Reading).Speed >= 8
		}),
		f3: ops.NewFilter("hov", func(v any) bool {
			return v.(traffic.Reading).Lane == traffic.HOVLane
		}),
		m2: ops.NewMap("speed", func(v any) any {
			return v.(traffic.Reading).Speed
		}),
		w:   ops.NewTimeWindow("w1m", chainWindow),
		agg: ops.NewAggregate("avghov", aggregate.NewAvg),
	}
}

// chainGraph is one wired instance of the chain.
type chainGraph struct {
	src   *pubsub.SliceSource
	tasks []*sched.BufferTask
	sink  *integralSink

	// Probes, present on a traced graph only.
	segment, tail, deliver *probe
}

// buildChain wires the chain over elems. With a tracer the benchmark's
// probes sit at the head of the dense segment, the head of the stateful
// tail and in front of the sink.
func buildChain(elems []temporal.Element, tr *tracer, parent int) *chainGraph {
	g := &chainGraph{src: pubsub.NewSliceSource("traffic", elems), sink: &integralSink{}}
	o := newChainOps()
	f1, m1, f2, f3, m2, w, agg := o.f1, o.m1, o.f2, o.f3, o.m2, o.w, o.agg

	var segHead pubsub.Sink = f1
	var tailHead pubsub.Sink = f3
	var last pubsub.Source = agg
	if tr != nil {
		g.segment = newProbe("probe:segment", tr, parent)
		g.tail = newProbe("probe:tail", tr, parent)
		g.deliver = newProbe("probe:sink", tr, parent)
		must(g.segment.Subscribe(f1, 0))
		must(g.tail.Subscribe(f3, 0))
		must(agg.Subscribe(g.deliver, 0))
		segHead, tailHead, last = g.segment, g.tail, g.deliver
	}
	t1, err := sched.Boundary("q.in", g.src, segHead, 0)
	must(err)
	must(f1.Subscribe(m1, 0))
	must(m1.Subscribe(f2, 0))
	t2, err := sched.Boundary("q.mid", f2, tailHead, 0)
	must(err)
	must(f3.Subscribe(m2, 0))
	must(m2.Subscribe(w, 0))
	must(w.Subscribe(agg, 0))
	must(last.Subscribe(g.sink, 0))
	g.tasks = []*sched.BufferTask{t1, t2}
	return g
}

// drive pumps feed and drains the boundary tasks on the same element
// cadence in both lanes: one drain pass, upstream to downstream, per
// drainEvery emitted elements, then to completion. frame <= 0 drives the
// scalar lane. tick, when non-nil, sees the running element count after
// every emission.
func drive(feed pubsub.BatchEmitter, frame int, tasks []*sched.BufferTask, tick func(emitted int)) {
	emitted, pending := 0, 0
	for {
		n, more := 1, false
		if frame > 0 {
			n, more = feed.EmitBatch(frame)
		} else {
			more = feed.EmitNext()
		}
		if !more {
			break
		}
		emitted += n
		pending += n
		if tick != nil {
			tick(emitted)
		}
		if pending >= drainEvery {
			for _, t := range tasks {
				t.RunBatch(0)
			}
			pending = 0
		}
	}
	for done := false; !done; {
		done = true
		for _, t := range tasks {
			if _, d := t.RunBatch(0); !d {
				done = false
			}
		}
	}
}

// chainPass builds a fresh graph, drives it and checks the sink. Every
// replay of the pool is one part of the pass.
func chainPass(in *chainInput, frame int) (sample, int64) {
	g := buildChain(in.elems, nil, 0)
	s := measureLaps(int64(len(in.elems)), func(lap func()) {
		drive(g.src, frame, g.tasks, lapEvery(in.pool, len(in.elems), lap))
	})
	return s, g.sink.failures(in.ref)
}

// lapEvery returns a drive tick that ends a part every `every` emitted
// elements; the end of the pass ends the last one.
func lapEvery(every, total int, lap func()) func(emitted int) {
	next := every
	return func(emitted int) {
		if emitted >= next && emitted < total {
			lap()
			next += every
		}
	}
}

func runChainReplay(cfg config, tr *tracer) (*result, error) {
	res := newResult(cfg)
	pool, cycles := cfg.scale(chainPool), chainCycles
	var in *chainInput
	res.setup(func() {
		sp := tr.begin("setup:generate+reference", 0)
		in = newChainInput(cfg.seed, pool, cycles)
		tr.end(sp)
		for _, frame := range []int{chainFrame, 0} { // warm-up of both lanes, checked
			_, failed := chainPass(in, frame)
			res.count(1, failed)
		}
	}, nil)
	if in.ref.spans == 0 {
		return nil, fmt.Errorf("chain_replay: reference is empty")
	}
	res.checksum("spans", uint64(in.ref.spans))
	res.checksum("integral", math.Float64bits(math.Round(in.ref.integral)))

	phases := 2
	if cfg.trace {
		phases = 3
	}
	share := cfg.work() / time.Duration(phases)
	lane := func(frame int) func() sample {
		return func() sample {
			s, failed := chainPass(in, frame)
			res.count(s.elems, failed)
			return s
		}
	}
	by := alternate(2*share, 3, lane(chainFrame), lane(0))
	batch, scalar := by[0], by[1]
	res.primary(batch)
	res.layer["chain_replay.scalar_throughput_eps"] = undisturbed(scalar).eps()
	if cfg.trace {
		traceChain(share, tr, in, res, medianOf(batch, sample.nsPerElem))
	}
	return res, nil
}

// traceChain repeats phase A on a graph carrying the benchmark's probes:
// the passes yield the self times of the dense segment and the stateful
// tail, and their cost over the bare passes is trace.overhead_ratio.
func traceChain(budget time.Duration, tr *tracer, in *chainInput, res *result, bareNS float64) {
	var segNS, tailNS, sinkNS, tailFrames, tailElems, n int64
	traced := repeat(budget, 2, func() sample {
		sp := tr.begin("pass:chain_replay", 0)
		g := buildChain(in.elems, tr, sp)
		src := newTracedSource(g.src, tr, sp)
		s := measure(int64(len(in.elems)), func() { drive(src, chainFrame, g.tasks, nil) })
		tr.end(sp)
		res.count(s.elems, g.sink.failures(in.ref))
		segNS += g.segment.ns.Load()
		tailNS += g.tail.ns.Load()
		sinkNS += g.deliver.ns.Load()
		tailFrames += g.deliver.frames.Load()
		tailElems += g.deliver.elems.Load()
		n += s.elems
		return s
	})
	res.layer["trace.overhead_ratio"] = medianOf(traced, sample.nsPerElem) / bareNS
	res.layer["ops.segment_self_ns_per_elem"] = float64(segNS) / float64(n)
	res.layer["ops.tail_self_ns_per_elem"] = float64(tailNS-sinkNS) / float64(n)
	if tailFrames > 0 {
		res.layer["pubsub.frame_fill"] = float64(tailElems) / float64(tailFrames)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
