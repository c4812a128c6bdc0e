// Package experiments implements the benchmark bodies for the paper's
// claims that have no cell in bench/ yet (EXPERIMENTS.md is the claim →
// cell | row | test index). They run one way: `go test -bench` through
// the root package's bench_test.go. Claims that are counts rather than
// timings are also asserted by this package's tests.
package experiments

import (
	"fmt"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cursor"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/sweeparea"
	"pipes/internal/temporal"
)

// feed returns the per-element entry into a node for benchmark loops: each
// call hands over one element as a one-element frame in reusable scratch —
// what SourceBase.Transfer does for a subscribed sink.
func feed(to pubsub.Sink) func(e temporal.Element, input int) {
	frames, err := pubsub.Frames(to)
	if err != nil {
		panic(err)
	}
	one := make(temporal.Batch, 1)
	return func(e temporal.Element, input int) {
		one[0] = e
		frames.ProcessBatch(one, input)
	}
}

// evenFilter and tenfold are the standard cheap operators of the
// transport benchmarks.
func evenFilter(name string) *ops.Filter {
	return ops.NewFilter(name, func(v any) bool { return v.(int)%2 == 0 })
}

func tenfold(name string) *ops.Map {
	return ops.NewMap(name, func(v any) any { return v.(int) * 10 })
}

// E2Direct measures the direct publish-subscribe hand-off: a
// filter→map→counter chain connected without any queue ("no
// inter-operator queues ⇒ substantial overhead reduction").
func E2Direct(b *testing.B) {
	f := evenFilter("f")
	m := tenfold("m")
	c := pubsub.NewCounter("c", 1)
	f.Subscribe(m, 0)
	m.Subscribe(c, 0)
	push := feed(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(temporal.At(i, temporal.Time(i)), 0)
	}
}

// E2Queued measures the same chain with an explicit queue between every
// operator, drained in scheduler-style batches of 64 — the architecture
// PIPES' direct connections replace.
func E2Queued(b *testing.B) {
	f := evenFilter("f")
	buf1 := pubsub.NewBuffer("q1")
	m := tenfold("m")
	buf2 := pubsub.NewBuffer("q2")
	c := pubsub.NewCounter("c", 1)
	f.Subscribe(buf1, 0)
	buf1.Subscribe(m, 0)
	m.Subscribe(buf2, 0)
	buf2.Subscribe(c, 0)
	push := feed(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(temporal.At(i, temporal.Time(i)), 0)
		if i%64 == 63 {
			buf1.Drain(0)
			buf2.Drain(0)
		}
	}
	buf1.Drain(0)
	buf2.Drain(0)
}

// E3Fusion builds a filter chain of the given length as ONE virtual node
// (a single boundary buffer in front, direct connections inside) and
// measures end-to-end cost per element.
func E3Fusion(chainLen int) func(b *testing.B) {
	return func(b *testing.B) {
		head, _ := buildFilterChain(chainLen)
		buf := pubsub.NewBuffer("boundary")
		buf.Subscribe(head, 0)
		push := feed(buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push(temporal.At(i, temporal.Time(i)), 0)
			if i%64 == 63 {
				buf.Drain(0)
			}
		}
		buf.Drain(0)
	}
}

// E3Unfused builds the same chain with one boundary buffer per operator
// (every operator its own scheduling unit).
func E3Unfused(chainLen int) func(b *testing.B) {
	return func(b *testing.B) {
		head, bufs := buildBufferedChain(chainLen)
		push := feed(head)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push(temporal.At(i, temporal.Time(i)), 0)
			if i%64 == 63 {
				for _, q := range bufs {
					q.Drain(0)
				}
			}
		}
		for _, q := range bufs {
			q.Drain(0)
		}
	}
}

// buildFilterChain returns `n` pass-through filters directly connected,
// terminated by a counter.
func buildFilterChain(n int) (pubsub.Pipe, *pubsub.Counter) {
	c := pubsub.NewCounter("c", 1)
	var head pubsub.Pipe
	var prev pubsub.Source
	for i := 0; i < n; i++ {
		f := ops.NewFilter(fmt.Sprintf("f%d", i), func(v any) bool { return true })
		if head == nil {
			head = f
		} else {
			prev.Subscribe(f, 0)
		}
		prev = f
	}
	prev.Subscribe(c, 0)
	return head, c
}

// buildBufferedChain interposes a buffer before every filter.
func buildBufferedChain(n int) (pubsub.Sink, []*pubsub.Buffer) {
	c := pubsub.NewCounter("c", 1)
	var bufs []*pubsub.Buffer
	var headSink pubsub.Sink
	var prev pubsub.Source
	for i := 0; i < n; i++ {
		buf := pubsub.NewBuffer(fmt.Sprintf("q%d", i))
		f := ops.NewFilter(fmt.Sprintf("f%d", i), func(v any) bool { return true })
		buf.Subscribe(f, 0)
		bufs = append(bufs, buf)
		if headSink == nil {
			headSink = buf
		} else {
			prev.Subscribe(buf, 0)
		}
		prev = f
	}
	prev.Subscribe(c, 0)
	return headSink, bufs
}

// e4Result is one scheduling-strategy simulation outcome.
type e4Result struct {
	Strategy   string
	MaxBacklog int   // peak total queued elements (memory proxy)
	SumBacklog int64 // time-integrated backlog (average memory proxy)
	Ticks      int   // ticks until both queues drained
}

// runE4 reproduces the Chain-scheduling setting [4] inside the layer-2
// framework: a two-stage plan src→q1→opA(σ=1.0)→q2→opB(σ=0.1)→sink with
// bursty external arrivals into q1 and a bounded per-tick service
// capacity. The strategy decides, tick by tick, which queue's virtual
// node runs. Chain (priority (1−σ)/cost) prefers q2, whose operator
// destroys tuples, and should minimise queue memory; FIFO-style static
// order prefers q1 (moving tuples, not destroying them) and accumulates
// backlog.
func runE4(strategy sched.Factory, bursts, burstSize, capacity int) e4Result {
	opA := ops.NewFilter("opA", func(v any) bool { return true })
	opB := ops.NewFilter("opB", func(v any) bool { return v.(int)%10 == 0 })
	sinkC := pubsub.NewCounter("c", 1)
	q1 := pubsub.NewBuffer("q1")
	q2 := pubsub.NewBuffer("q2")
	q1.Subscribe(opA, 0)
	opA.Subscribe(q2, 0)
	q2.Subscribe(opB, 0)
	opB.Subscribe(sinkC, 0)

	t1 := sched.NewBufferTask(q1)
	t1.SetProfile(1.0, 1)
	t2 := sched.NewBufferTask(q2)
	t2.SetProfile(0.1, 1)
	tasks := []sched.Task{t1, t2}
	strat := strategy()

	res := e4Result{Strategy: strat.Name()}
	next := 0
	push := feed(q1)
	for tick := 0; ; tick++ {
		if tick < bursts {
			for i := 0; i < burstSize; i++ {
				push(temporal.At(next, temporal.Time(next)), 0)
				next++
			}
		}
		for c := 0; c < capacity; c++ {
			idx := strat.Next(tasks)
			if idx < 0 {
				break
			}
			tasks[idx].RunBatch(1)
		}
		backlog := q1.Len() + q2.Len()
		if backlog > res.MaxBacklog {
			res.MaxBacklog = backlog
		}
		res.SumBacklog += int64(backlog)
		if tick >= bursts && backlog == 0 {
			res.Ticks = tick
			return res
		}
		if tick > bursts*100 { // safety: strategy failed to drain
			res.Ticks = tick
			return res
		}
	}
}

// E4Strategy wraps runE4 as a benchmark reporting peak and mean backlog.
func E4Strategy(strategy sched.Factory, bursts int) func(b *testing.B) {
	return func(b *testing.B) {
		for iter := 0; iter < b.N; iter++ {
			r := runE4(strategy, bursts, 30, 35)
			b.ReportMetric(float64(r.MaxBacklog), "maxq")
			b.ReportMetric(float64(r.SumBacklog)/float64(r.Ticks+1), "meanq")
		}
	}
}

// e5Areas builds one pair of SweepAreas for the E5 workload. Consecutive
// elements land on alternating inputs, so keys derive from i/2: every
// pair shares a key and joins actually match.
func e5Areas(kind string) (sweeparea.SweepArea, sweeparea.SweepArea) {
	key := func(v any) any { return (v.(int) / 2) % 100 }
	num := func(v any) float64 { return float64((v.(int) / 2) % 100) }
	pred := func(p, s any) bool { return (p.(int)/2)%100 == (s.(int)/2)%100 }
	switch kind {
	case "hash":
		return sweeparea.NewHash(key, key), sweeparea.NewHash(key, key)
	case "tree":
		return sweeparea.NewTree(num, num, 0), sweeparea.NewTree(num, num, 0)
	default:
		return sweeparea.NewList(pred), sweeparea.NewList(pred)
	}
}

// e5Matches runs the E5 workload at fixed size and returns the number of
// join results (shape guard used by tests).
func e5Matches(kind string, n int, window temporal.Time) int64 {
	la, ra := e5Areas(kind)
	j := ops.NewJoin("j", la, ra, nil, nil)
	c := pubsub.NewCounter("c", 1)
	j.Subscribe(c, 0)
	push := feed(j)
	for i := 0; i < n; i++ {
		ts := temporal.Time(i)
		push(temporal.NewElement(i, ts, ts+window), i%2)
	}
	j.Done(0)
	j.Done(1)
	c.Wait()
	return c.Count()
}

// E5Join measures symmetric window-join throughput for one SweepArea kind
// and window size: two interleaved streams, keys mod 100.
func E5Join(kind string, window temporal.Time) func(b *testing.B) {
	return func(b *testing.B) {
		la, ra := e5Areas(kind)
		j := ops.NewJoin("j", la, ra, nil, nil)
		c := pubsub.NewCounter("c", 1)
		j.Subscribe(c, 0)
		push := feed(j)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := temporal.Time(i)
			push(temporal.NewElement(i, ts, ts+window), i%2)
		}
		b.StopTimer()
		b.ReportMetric(float64(c.Count())/float64(b.N), "results/elem")
	}
}

// E6MJoin measures the symmetric 3-way MJoin.
func E6MJoin(b *testing.B) {
	key := func(v any) any { return v.(int) % 50 }
	m := ops.NewMJoin("m", 3, key)
	c := pubsub.NewCounter("c", 1)
	m.Subscribe(c, 0)
	push := feed(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := temporal.Time(i)
		push(temporal.NewElement(i, ts, ts+200), i%3)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Count())/float64(b.N), "results/elem")
}

// E6BinaryTree measures the equivalent binary join tree (a⋈b)⋈c.
func E6BinaryTree(b *testing.B) {
	key := func(v any) any { return v.(int) % 50 }
	j1 := ops.NewEquiJoin("j1", key, key, func(l, r any) any { return []any{l, r} })
	pairKey := func(v any) any { return key(v.([]any)[0]) }
	j2 := ops.NewEquiJoin("j2", pairKey, key, func(l, r any) any {
		p := l.([]any)
		return []any{p[0], p[1], r}
	})
	j1.Subscribe(j2, 0)
	c := pubsub.NewCounter("c", 1)
	j2.Subscribe(c, 0)
	pushJ1 := feed(j1)
	pushJ2 := feed(j2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := temporal.Time(i)
		e := temporal.NewElement(i, ts, ts+200)
		switch i % 3 {
		case 0:
			pushJ1(e, 0)
		case 1:
			pushJ1(e, 1)
		default:
			pushJ2(e, 1)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Count())/float64(b.N), "results/elem")
}

// E9WithCoalesce measures the output rate of an aggregate whose value
// rarely changes, followed by the rate-reducing coalesce.
func E9WithCoalesce(b *testing.B) {
	e9(b, true)
}

// E9WithoutCoalesce is the baseline without coalescing.
func E9WithoutCoalesce(b *testing.B) {
	e9(b, false)
}

func e9(b *testing.B, coalesce bool) {
	b.ReportAllocs()
	out := runCoalesce(b.N, coalesce)
	b.ReportMetric(float64(out)/float64(b.N), "out/elem")
}

// runCoalesce pushes n elements through COUNT over a sliding window
// bucketed to count/8 — a value that is mostly stable from one output to
// the next — with or without the coalesce that merges its runs, and
// returns the number of output elements.
func runCoalesce(n int, coalesce bool) int64 {
	agg := ops.NewAggregate("cnt", aggregate.NewCount)
	bucket := ops.NewMap("bucket", func(v any) any { return v.(int64) / 8 })
	c := pubsub.NewCounter("c", 1)
	agg.Subscribe(bucket, 0)
	if coalesce {
		co := ops.NewCoalesce("co", nil)
		bucket.Subscribe(co, 0)
		co.Subscribe(c, 0)
	} else {
		bucket.Subscribe(c, 0)
	}
	push := feed(agg)
	for i := 0; i < n; i++ {
		ts := temporal.Time(i)
		push(temporal.NewElement(i, ts, ts+64), 0)
	}
	agg.Done(0)
	return c.Count()
}

// E14CursorBridge measures the stream→cursor→stream round trip per
// element against direct stream transport.
func E14CursorBridge(b *testing.B) {
	// stream -> bridge sink -> cursor -> source -> counter
	elems := make([]temporal.Element, b.N)
	for i := range elems {
		elems[i] = temporal.At(i, temporal.Time(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	bridge := newBenchBridge(elems)
	if got := bridge(); got != int64(b.N) {
		b.Fatalf("bridge lost elements: %d of %d", got, b.N)
	}
}

func newBenchBridge(elems []temporal.Element) func() int64 {
	return func() int64 {
		sink := cursor.NewSink("bridge")
		push := feed(sink)
		for _, e := range elems {
			push(e, 0)
		}
		sink.Done(0)
		n := int64(0)
		cur := sink.Cursor()
		for {
			_, ok := cur.Next()
			if !ok {
				break
			}
			n++
		}
		return n
	}
}

// E15Ripple reports the fraction of the input the ripple join consumes
// before its online COUNT estimate stays within 5% of the exact answer.
func E15Ripple(b *testing.B) {
	for iter := 0; iter < b.N; iter++ {
		firstStable, steps := runRipple()
		b.ReportMetric(float64(firstStable)/float64(steps), "converge-frac")
	}
}

// runRipple steps a 4000×4000 ripple equi-join to exhaustion and returns
// the step from which the online COUNT estimate stayed within 5% of the
// exact answer, and the total number of steps.
func runRipple() (firstStable, steps int) {
	const n = 4000
	mk := func(seed int) []temporal.Element {
		out := make([]temporal.Element, n)
		for i := range out {
			out[i] = temporal.NewElement((i*7+seed)%100, temporal.Time(i), temporal.MaxTime)
		}
		return out
	}
	left, right := mk(1), mk(13)
	pred := func(l, r any) bool { return l.(int) == r.(int) }
	exact := sweeparea.NewRippleJoin(left, right, pred, nil, nil, nil).Run()

	rj := sweeparea.NewRippleJoin(left, right, pred, nil, nil, nil)
	for rj.Step() {
		steps++
		est, _ := rj.Estimate()
		if est > exact*0.95 && est < exact*1.05 {
			if firstStable == 0 {
				firstStable = steps
			}
		} else {
			firstStable = 0
		}
	}
	return firstStable, steps
}

// E16Threads runs a fan-out of independent filter chains under the given
// layer-3 threading mode: "single" (all virtual nodes on one worker),
// "per-op" (one worker per virtual node — thread-per-operator engines) or
// "hybrid" (two workers). The paper's hybrid claims the middle ground.
func E16Threads(mode string, chains, elements int) func(b *testing.B) {
	return func(b *testing.B) {
		for iter := 0; iter < b.N; iter++ {
			b.StopTimer()
			workers := 1
			switch mode {
			case "per-op":
				workers = chains + 1
			case "hybrid":
				workers = 2
			}
			elems := make([]temporal.Element, elements)
			for i := range elems {
				elems[i] = temporal.At(i, temporal.Time(i))
			}
			src := pubsub.NewSliceSource("src", elems)
			s := sched.New(sched.Config{Workers: workers, BatchSize: 64})
			s.Add(sched.NewEmitterTask(src))
			counters := make([]*pubsub.Counter, chains)
			for cIdx := 0; cIdx < chains; cIdx++ {
				f := ops.NewFilter(fmt.Sprintf("f%d", cIdx), func(v any) bool { return v.(int)%2 == 0 })
				counters[cIdx] = pubsub.NewCounter("c", 1)
				bt, err := sched.Boundary(fmt.Sprintf("q%d", cIdx), src, f, 0)
				if err != nil {
					b.Fatal(err)
				}
				f.Subscribe(counters[cIdx], 0)
				s.Add(bt)
			}
			b.StartTimer()
			s.Start()
			s.Wait()
			b.StopTimer()
			for _, c := range counters {
				c.Wait()
				if c.Count() != int64(elements/2) {
					b.Fatalf("chain got %d results", c.Count())
				}
			}
			b.StartTimer()
		}
	}
}

// E17Parallel measures partitioned intra-operator parallelism: a single
// source feeds a grouped aggregation hash-partitioned across `replicas`
// instances (ops.Parallel), whose hand-off buffers are spread over
// `workers` scheduler threads. Workers=1 gives the serial baseline;
// Workers=NumCPU shows the speedup partitioning buys on multi-core
// hosts. The steal counter is reported so contention is visible next to
// the timing.
func E17Parallel(workers, replicas, elements int) func(b *testing.B) {
	return func(b *testing.B) {
		kf := func(v any) any { return v.(int) % 64 }
		for iter := 0; iter < b.N; iter++ {
			b.StopTimer()
			elems := make([]temporal.Element, elements)
			for i := range elems {
				elems[i] = temporal.NewElement(i%1024, temporal.Time(i), temporal.Time(i+64))
			}
			src := pubsub.NewSliceSource("src", elems)
			par := ops.NewParallel("p", 1, replicas, kf, func(r int) pubsub.Pipe {
				return ops.NewGroupBy(fmt.Sprintf("g%d", r), kf, aggregate.NewSum, nil)
			})
			if err := src.Subscribe(par, 0); err != nil {
				b.Fatal(err)
			}
			ctr := pubsub.NewCounter("c", 1)
			if err := par.Subscribe(ctr, 0); err != nil {
				b.Fatal(err)
			}
			s := sched.New(sched.Config{Workers: workers, BatchSize: 64})
			s.Add(sched.NewEmitterTask(src))
			for i, buf := range par.Buffers() {
				s.AddTo(i%workers, sched.NewBufferTask(buf))
			}
			b.StartTimer()
			s.Start()
			s.Wait()
			b.StopTimer()
			ctr.Wait()
			if ctr.Count() == 0 {
				b.Fatal("no aggregation output")
			}
			b.ReportMetric(float64(s.Contention().Steals), "steals")
			b.StartTimer()
		}
	}
}
