package ops

// Paper claims as deterministic counts (EXPERIMENTS.md). Each test counts
// the work a mechanism exists to avoid — queue stores, materialised
// intermediates, aggregate calls, buffered elements — so a regression in
// the mechanism fails a test instead of moving a timing.

import (
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// pusher returns a per-element entry into sink through one reused
// one-element frame, so an allocation count sees only the graph's own.
func pusher(sink pubsub.BatchSink) func(e temporal.Element, input int) {
	one := make(temporal.Batch, 1)
	return func(e temporal.Element, input int) {
		one[0] = e
		sink.ProcessBatch(one, input)
	}
}

// e2Chain is the E2 filter→map→counter chain. Queued, it has a
// pubsub.Buffer on each edge; queues lists them in topological order.
type e2Chain struct {
	push   func(temporal.Element, int)
	queues []*pubsub.Buffer
	out    *pubsub.Counter
}

func newE2Chain(queued bool) *e2Chain {
	f := NewFilter("f", func(v any) bool { return v.(int)%2 == 0 })
	m := NewMap("m", func(v any) any { return v.(int) * 10 })
	ch := &e2Chain{push: pusher(f), out: pubsub.NewCounter("c", 1)}
	link := func(from pubsub.Source, to pubsub.Sink) {
		if !queued {
			from.Subscribe(to, 0)
			return
		}
		q := pubsub.NewBuffer("q")
		from.Subscribe(q, 0)
		q.Subscribe(to, 0)
		ch.queues = append(ch.queues, q)
	}
	link(f, m)
	link(m, ch.out)
	return ch
}

// step pushes element i and drains every queue in order, returning how
// many elements the queues stored on the way.
func (ch *e2Chain) step(i int) (stored int) {
	ch.push(temporal.At(i, temporal.Time(i)), 0)
	for _, q := range ch.queues {
		stored += q.Len()
		q.Drain(0)
	}
	return stored
}

// TestClaimE2DirectHandOffStoresNothing: direct publish-subscribe
// connections hand every element over without storing it; a queue on
// each of the chain's two edges stores every delivered element twice.
func TestClaimE2DirectHandOffStoresNothing(t *testing.T) {
	const n = 1000
	perDelivered := map[bool]float64{}
	for _, queued := range []bool{false, true} {
		ch := newE2Chain(queued)
		stored := 0
		for i := 0; i < n; i++ {
			stored += ch.step(i)
		}
		if got := ch.out.Count(); got != n/2 {
			t.Fatalf("queued=%v: counter saw %d elements, want %d", queued, got, n/2)
		}
		perDelivered[queued] = float64(stored) / float64(n/2)
	}
	if perDelivered[false] != 0 {
		t.Errorf("direct chain stored %.2f elements per delivered element, want 0", perDelivered[false])
	}
	if perDelivered[true] != 2 {
		t.Errorf("queued chain stored %.2f elements per delivered element, want 2", perDelivered[true])
	}

	allocs := map[bool]float64{}
	for _, queued := range []bool{false, true} {
		ch := newE2Chain(queued)
		i := 0
		allocs[queued] = testing.AllocsPerRun(200, func() {
			ch.step(i)
			i++
		})
	}
	if allocs[false] > allocs[true] {
		t.Errorf("direct chain allocates %.2f per element, queued %.2f", allocs[false], allocs[true])
	}
	t.Logf("stored per delivered element: direct %.2f, queued %.2f; allocs per element: direct %.2f, queued %.2f",
		perDelivered[false], perDelivered[true], allocs[false], allocs[true])
}

// e6Plan is a 3-way equi-join on v%50, element i on input i%3 valid for
// 200 ticks. intermediates counts tuples materialised between the plan's
// inputs and its output.
type e6Plan struct {
	push          func(e temporal.Element, input int)
	done          func()
	out           *pubsub.Counter
	intermediates *int
}

func newE6Plan(mjoin bool) e6Plan {
	key := func(v any) any { return v.(int) % 50 }
	out := pubsub.NewCounter("c", 1)
	n := new(int)
	if mjoin {
		m := NewMJoin("m", 3, key)
		m.Subscribe(out, 0)
		return e6Plan{
			push:          pusher(m),
			done:          func() { m.Done(0); m.Done(1); m.Done(2) },
			out:           out,
			intermediates: n,
		}
	}
	// The binary tree (a⋈b)⋈c: every result of j1 is an intermediate.
	j1 := NewEquiJoin("j1", key, key, func(l, r any) any {
		*n++
		return []any{l, r}
	})
	pairKey := func(v any) any { return key(v.([]any)[0]) }
	j2 := NewEquiJoin("j2", pairKey, key, func(l, r any) any {
		p := l.([]any)
		return []any{p[0], p[1], r}
	})
	j1.Subscribe(j2, 0)
	j2.Subscribe(out, 0)
	pushJ1, pushJ2 := pusher(j1), pusher(j2)
	return e6Plan{
		push: func(e temporal.Element, input int) {
			if input < 2 {
				pushJ1(e, input)
			} else {
				pushJ2(e, 1)
			}
		},
		done:          func() { j1.Done(0); j1.Done(1); j2.Done(1) },
		out:           out,
		intermediates: n,
	}
}

func (p e6Plan) step(i int) {
	ts := temporal.Time(i)
	p.push(temporal.NewElement(i, ts, ts+200), i%3)
}

// TestClaimE6MJoinMaterialisesNoIntermediates: the binary tree's first
// join materialises pair tuples the final result may never use; MJoin
// probes every input from the arriving element and builds only results.
func TestClaimE6MJoinMaterialisesNoIntermediates(t *testing.T) {
	const n = 3000
	results := map[bool]int64{}
	intermediates := map[bool]int{}
	for _, mjoin := range []bool{true, false} {
		p := newE6Plan(mjoin)
		for i := 0; i < n; i++ {
			p.step(i)
		}
		p.done()
		results[mjoin] = p.out.Count()
		intermediates[mjoin] = *p.intermediates
	}
	if results[true] == 0 || results[true] != results[false] {
		t.Fatalf("results: mjoin %d, tree %d; want equal and non-zero", results[true], results[false])
	}
	if intermediates[true] != 0 {
		t.Errorf("MJoin materialised %d intermediate tuples, want 0", intermediates[true])
	}
	if intermediates[false] == 0 {
		t.Errorf("binary tree materialised no intermediate tuples")
	}

	allocs := map[bool]float64{}
	for _, mjoin := range []bool{true, false} {
		p := newE6Plan(mjoin)
		i := 0
		for ; i < 600; i++ { // fill the windows
			p.step(i)
		}
		allocs[mjoin] = testing.AllocsPerRun(300, func() {
			p.step(i)
			i++
		})
	}
	if allocs[true] >= allocs[false] {
		t.Errorf("MJoin allocates %.2f per element, tree %.2f: want fewer", allocs[true], allocs[false])
	}
	t.Logf("allocs per element: mjoin %.2f, tree %.2f; intermediates %v", allocs[true], allocs[false], intermediates)
}

// callCounting is a COUNT aggregate that counts its Insert calls. It has
// no Remove, so the group-by refolds the live multiset at every expiry.
type callCounting struct {
	inner aggregate.Aggregate
	calls *int
}

func (c callCounting) Insert(v any) { *c.calls++; c.inner.Insert(v) }
func (c callCounting) Value() any   { return c.inner.Value() }
func (c callCounting) Reset()       { c.inner.Reset() }

// invertibleCounting is callCounting with Remove, counted too.
type invertibleCounting struct{ callCounting }

func (c invertibleCounting) Remove(v any) {
	*c.calls++
	c.inner.(aggregate.Invertible).Remove(v)
}

// a1CallsPerElement pushes n elements valid for window ticks through a
// global COUNT and returns the aggregate's Insert+Remove calls per
// element.
func a1CallsPerElement(window temporal.Time, invertible bool) float64 {
	const n = 4096
	calls := 0
	factory := func() aggregate.Aggregate {
		c := callCounting{inner: aggregate.NewCount(), calls: &calls}
		if invertible {
			return invertibleCounting{c}
		}
		return c
	}
	g := NewAggregate("cnt", factory)
	g.Subscribe(pubsub.NewCounter("c", 1), 0)
	push := pusher(g)
	for i := 0; i < n; i++ {
		ts := temporal.Time(i)
		push(temporal.NewElement(i%100, ts, ts+window), 0)
	}
	return float64(calls) / n
}

// TestClaimA1InvertibleAggregateIsFlatInWindow: with Remove, sliding an
// aggregate costs one Insert and one Remove per element whatever the
// window; without it, every expiry refolds the window's live elements.
func TestClaimA1InvertibleAggregateIsFlatInWindow(t *testing.T) {
	var prev float64
	for _, w := range []temporal.Time{64, 512} {
		inc := a1CallsPerElement(w, true)
		rec := a1CallsPerElement(w, false)
		if inc > 2 {
			t.Errorf("window %d: incremental path made %.2f calls per element, want <= 2", w, inc)
		}
		if rec < float64(w)/2 {
			t.Errorf("window %d: recompute path made %.2f calls per element, want >= %d", w, rec, w/2)
		}
		if rec <= prev {
			t.Errorf("window %d: recompute calls per element %.2f did not grow from %.2f", w, rec, prev)
		}
		prev = rec
		t.Logf("window %d: calls per element incremental %.2f, recompute %.2f", w, inc, rec)
	}
}

// orderedMerge is the part of Union the A3 claim reads.
type orderedMerge interface {
	pubsub.Pipe
	pubsub.BatchSink
	Pending() int
}

// a3Step pushes pair k: input 0 runs lag ticks ahead of input 1, so a
// merge that forwards on arrival emits out of Start order. The values are
// the input indexes, which box without allocating.
func a3Step(push func(temporal.Element, int), k int, lag temporal.Time) {
	push(temporal.At(0, 2*temporal.Time(k)+lag), 0)
	push(temporal.At(1, 2*temporal.Time(k)+1), 1)
}

// TestClaimA3UnionRestoresOrderInBoundedSpace: Union's output is
// globally Start-ordered, it holds back only the elements the slower
// input's watermark has not passed, and it allocates nothing per element.
func TestClaimA3UnionRestoresOrderInBoundedSpace(t *testing.T) {
	const n, lag = 2000, 16
	var u orderedMerge = NewUnion("u", 2)
	col := pubsub.NewCollector("col", 1)
	u.Subscribe(col, 0)
	push := pusher(u)
	for k := 0; k < n; k++ {
		a3Step(push, k, lag)
		if p := u.Pending(); p > lag {
			t.Fatalf("pair %d: %d elements pending, want <= %d", k, p, lag)
		}
	}
	u.Done(0)
	u.Done(1)
	col.Wait()
	out := col.Elements()
	if len(out) != 2*n {
		t.Fatalf("union emitted %d elements, want %d", len(out), 2*n)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Start < out[i-1].Start {
			t.Fatalf("output[%d] starts at %d after %d: not Start-ordered", i, out[i].Start, out[i-1].Start)
		}
	}

	var v orderedMerge = NewUnion("u", 2)
	v.Subscribe(pubsub.NewCounter("c", 1), 0)
	push = pusher(v)
	k := 0
	for ; k < 100; k++ {
		a3Step(push, k, lag)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		a3Step(push, k, lag)
		k++
	}); allocs != 0 {
		t.Errorf("union allocates %.2f per pair of elements, want 0", allocs)
	}
}

// runCoalesce pushes n elements through COUNT over a sliding window
// bucketed to count/8 — a value that is mostly stable from one output to
// the next — with or without the coalesce that merges its runs, and
// returns the number of output elements.
func runCoalesce(n int, coalesce bool) int64 {
	agg := NewAggregate("cnt", aggregate.NewCount)
	bucket := NewMap("bucket", func(v any) any { return v.(int64) / 8 })
	c := pubsub.NewCounter("c", 1)
	agg.Subscribe(bucket, 0)
	if coalesce {
		co := NewCoalesce("co", nil)
		bucket.Subscribe(co, 0)
		co.Subscribe(c, 0)
	} else {
		bucket.Subscribe(c, 0)
	}
	push := pusher(agg)
	for i := 0; i < n; i++ {
		ts := temporal.Time(i)
		push(temporal.NewElement(i, ts, ts+64), 0)
	}
	agg.Done(0)
	return c.Count()
}

// TestClaimE9CoalesceReducesOutputRate: coalesce merges the runs of an
// aggregate whose value rarely changes into fewer output elements.
func TestClaimE9CoalesceReducesOutputRate(t *testing.T) {
	const n = 10000
	without := runCoalesce(n, false)
	with := runCoalesce(n, true)
	if without < n/2 {
		t.Fatalf("baseline emits %d outputs for %d inputs: the workload no longer changes per element", without, n)
	}
	if with == 0 || with >= without {
		t.Fatalf("coalesce emitted %d outputs, baseline %d: want strictly fewer and non-empty", with, without)
	}
}
