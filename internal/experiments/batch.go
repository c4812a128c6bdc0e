package experiments

import (
	"sync"
	"testing"
	"time"

	"pipes/internal/aggregate"
	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
	"pipes/internal/traffic"
)

// E20 sweeps the frame size on the filter/map-dense segment of the
// traffic workload (frame 1 is the paper's per-element hand-off): the
// per-element cost of this chain is almost entirely virtual dispatch, lock
// acquisition and per-hop transfer — exactly what larger frames amortise.
// The
// readings are pre-generated once into a pool and cycled with shifted
// timestamps, so the generator's own cost (a per-reading scan of the
// arrival heap) stays out of the measurement and every frame size pumps
// identical streams.

const e20PoolSize = 1 << 16

var (
	e20Once sync.Once
	e20Pool []temporal.Element
	e20Span temporal.Time
)

func e20Readings() ([]temporal.Element, temporal.Time) {
	e20Once.Do(func() {
		gen := traffic.NewGenerator(traffic.Config{Seed: 7, MaxReadings: e20PoolSize})
		e20Pool = make([]temporal.Element, 0, e20PoolSize)
		for {
			r, ok := gen.Next()
			if !ok {
				break
			}
			e20Pool = append(e20Pool, temporal.At(r, r.Timestamp))
		}
		e20Span = e20Pool[len(e20Pool)-1].Start + 1
	})
	return e20Pool, e20Span
}

// e20Source publishes n readings drawn from the pre-generated pool,
// shifting timestamps by one pool span per cycle so arrival order stays
// monotone. Reading values are shared across cycles; the chain's maps
// copy before mutating, so sharing is safe.
func e20Source(name string, n int) *pubsub.FuncSource {
	pool, span := e20Readings()
	i := 0
	return pubsub.NewFuncSource(name, func() (temporal.Element, bool) {
		if i >= n {
			return temporal.Element{}, false
		}
		e := pool[i%len(pool)]
		if shift := temporal.Time(i/len(pool)) * span; shift != 0 {
			e = e.WithInterval(temporal.NewInterval(e.Start+shift, e.End+shift))
		}
		i++
		return e, true
	})
}

// e20Graph wires the filter/map-dense chain under test to feed:
//
//	[boundary] → oakland-filter → unit-map → moving-filter →
//	[boundary] → hov-filter → speed-map → 1-minute window →
//	global average → counter
//
// The two scheduler boundaries are the architecture's hand-off points
// (layer-1 buffers between virtual nodes): they pay one queue
// enqueue/dequeue per frame. The
// first hops see the full stream rate (the dense segment); only ~10% of
// readings survive to the stateful tail. The returned GroupBy is the
// chain's one stateful operator (for checkpoint registration); the tasks
// are drained by e20Drive in upstream-to-downstream order.
func e20Graph(feed pubsub.Source) (*ops.GroupBy, *pubsub.Counter, []*sched.BufferTask) {
	f1 := ops.NewFilter("oakland", func(v any) bool {
		return v.(traffic.Reading).Direction == traffic.DirOakland
	})
	m1 := ops.NewMap("kmh", func(v any) any {
		r := v.(traffic.Reading)
		r.Speed *= 1.609344
		return r
	})
	f2 := ops.NewFilter("moving", func(v any) bool {
		return v.(traffic.Reading).Speed >= 8
	})
	f3 := ops.NewFilter("hov", func(v any) bool {
		return v.(traffic.Reading).Lane == traffic.HOVLane
	})
	m2 := ops.NewMap("speed", func(v any) any {
		return v.(traffic.Reading).Speed
	})
	w := ops.NewTimeWindow("w1m", 60_000)
	g := ops.NewAggregate("avghov", aggregate.NewAvg)
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
	return g, c, []*sched.BufferTask{t1, t2}
}

// e20Segment wires only the filter/map-dense segment of the chain — the
// selection/projection hops that see the full stream rate — into a
// counter, leaving out the stateful window/aggregate tail whose heap
// maintenance costs the same per element at every frame size. This
// isolates the cost frames exist to amortise: dispatch, locks and per-hop
// transfer.
func e20Segment(feed pubsub.Source) (*pubsub.Counter, []*sched.BufferTask) {
	f1 := ops.NewFilter("oakland", func(v any) bool {
		return v.(traffic.Reading).Direction == traffic.DirOakland
	})
	m1 := ops.NewMap("kmh", func(v any) any {
		r := v.(traffic.Reading)
		r.Speed *= 1.609344
		return r
	})
	f2 := ops.NewFilter("moving", func(v any) bool {
		return v.(traffic.Reading).Speed >= 8
	})
	f3 := ops.NewFilter("hov", func(v any) bool {
		return v.(traffic.Reading).Lane == traffic.HOVLane
	})
	m2 := ops.NewMap("speed", func(v any) any {
		return v.(traffic.Reading).Speed
	})
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
	m2.Subscribe(c, 0)
	return c, []*sched.BufferTask{t1, t2}
}

// E20Segment benchmarks the filter/map-dense segment alone at the given
// frame size (frame <= 0 means frame 1) — the number PR 6's ≥2×
// frame-64-over-frame-1 acceptance bar was measured against.
func E20Segment(frame int) func(b *testing.B) {
	return func(b *testing.B) {
		src := e20Source("traffic", b.N)
		c, tasks := e20Segment(src)
		b.ReportAllocs()
		b.ResetTimer()
		e20Drive(src, frame, tasks)
		b.StopTimer()
		if c.Count() == 0 && b.N > 10_000 {
			b.Fatal("segment produced no output")
		}
	}
}

// e20Drive pumps the source and drains the boundary tasks on the same
// element cadence at every frame size: one full drain pass (upstream to
// downstream) per 256 emitted elements, then drain to completion once the
// source exhausts. frame <= 0 means frame 1.
func e20Drive(feed pubsub.BatchEmitter, frame int, tasks []*sched.BufferTask) {
	pending := 0
	drain := func() {
		for _, t := range tasks {
			t.RunBatch(0)
		}
		pending = 0
	}
	for {
		n, more := feed.EmitBatch(frame)
		pending += n
		if !more {
			break
		}
		if pending >= 256 {
			drain()
		}
	}
	for {
		done := true
		for _, t := range tasks {
			if _, d := t.RunBatch(0); !d {
				done = false
			}
		}
		if done {
			return
		}
	}
}

// E20Batch benchmarks the chain at the given frame size (frame <= 0
// means frame 1). A non-off mode wraps the source in a
// CheckpointSource and checkpoints the aggregate on the E19 schedule, so
// the barrier punctuation-cut rides the measured path.
func E20Batch(frame int, mode CheckpointMode, interval time.Duration) func(b *testing.B) {
	return func(b *testing.B) {
		src := e20Source("traffic", b.N)
		var feed pubsub.BatchEmitter = src
		var mgr *ft.Manager
		if mode != CheckpointOff {
			store := ft.CheckpointStore(ft.NewMemStore())
			if mode == CheckpointFile {
				fs, err := ft.NewFileStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				store = fs
			}
			mgr = ft.NewManager(store)
			cs := ft.NewCheckpointSource(src)
			mgr.RegisterSource(cs)
			feed = cs
		}
		g, c, tasks := e20Graph(feed)
		if mgr != nil {
			mgr.RegisterOperator(g, g)
		}

		b.ReportAllocs()
		b.ResetTimer()
		if mgr != nil {
			mgr.Start(interval)
		}
		e20Drive(feed, frame, tasks)
		if mgr != nil {
			mgr.Stop()
		}
		b.StopTimer()
		if c.Count() == 0 && b.N > 10_000 {
			b.Fatal("chain produced no output")
		}
		if mgr != nil {
			b.ReportMetric(float64(mgr.Completed()), "checkpoints")
		}
	}
}
