package experiments

// Ablation benchmarks: quantify the design choices DESIGN.md calls out by
// switching them off.

import (
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sweeparea"
	"pipes/internal/temporal"
)

// hiddenRemove wraps an invertible aggregate but hides its Remove method,
// forcing the group-by operator onto the recompute-from-live-multiset
// path.
type hiddenRemove struct {
	inner aggregate.Aggregate
}

func (h hiddenRemove) Insert(v any) { h.inner.Insert(v) }
func (h hiddenRemove) Value() any   { return h.inner.Value() }
func (h hiddenRemove) Reset()       { h.inner.Reset() }

// A1GroupByIncremental measures sliding aggregation with the invertible
// fast path (O(1) per boundary).
func A1GroupByIncremental(window temporal.Time) func(b *testing.B) {
	return a1(window, aggregate.NewSum)
}

// A1GroupByRecompute measures the same workload with removal hidden, so
// every expiry boundary refolds the whole live multiset.
func A1GroupByRecompute(window temporal.Time) func(b *testing.B) {
	return a1(window, func() aggregate.Aggregate { return hiddenRemove{inner: aggregate.NewSum()} })
}

func a1(window temporal.Time, factory aggregate.Factory) func(b *testing.B) {
	return func(b *testing.B) {
		g := ops.NewAggregate("sum", factory)
		c := pubsub.NewCounter("c", 1)
		g.Subscribe(c, 0)
		push := feed(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := temporal.Time(i)
			push(temporal.NewElement(i%100, ts, ts+window), 0)
		}
	}
}

// A2JoinWithPurge measures symmetric probing with Reorganize called per
// arrival (the SweepArea contract).
func A2JoinWithPurge(window temporal.Time) func(b *testing.B) {
	return a2(window, true)
}

// A2JoinNoPurge disables reorganisation: state grows without bound and
// every probe pays for it (and emits stale non-overlapping candidates the
// interval check must discard).
func A2JoinNoPurge(window temporal.Time) func(b *testing.B) {
	return a2(window, false)
}

func a2(window temporal.Time, purge bool) func(b *testing.B) {
	return func(b *testing.B) {
		key := func(v any) any { return (v.(int) / 2) % 100 }
		areas := [2]sweeparea.SweepArea{
			sweeparea.NewHash(key, key),
			sweeparea.NewHash(key, key),
		}
		results := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := temporal.Time(i)
			e := temporal.NewElement(i, ts, ts+window)
			input := i % 2
			opp := 1 - input
			if purge {
				areas[opp].Reorganize(e.Start)
			}
			areas[opp].Probe(e, func(s temporal.Element) {
				if _, ok := e.Intersect(s.Interval); ok {
					results++
				}
			})
			areas[input].Insert(e)
		}
		b.StopTimer()
		b.ReportMetric(float64(areas[0].Len()+areas[1].Len()), "state")
	}
}

// naiveMerge forwards immediately without restoring global Start order —
// the (incorrect) baseline quantifying the cost of the order buffer.
type naiveMerge struct {
	pubsub.PipeBase
}

func newNaiveMerge(inputs int) *naiveMerge {
	return &naiveMerge{PipeBase: pubsub.NewPipeBase("naive", inputs)}
}

func (m *naiveMerge) ProcessBatch(b temporal.Batch, _ int) {
	m.ProcMu.Lock()
	defer m.ProcMu.Unlock()
	m.TransferBatch(b)
}

// A3UnionOrdered measures the real union (heap + watermarks).
func A3UnionOrdered(b *testing.B) {
	u := ops.NewUnion("u", 2)
	a3(b, u)
}

// A3UnionNaive measures the order-violating forwarder.
func A3UnionNaive(b *testing.B) {
	a3(b, newNaiveMerge(2))
}

func a3(b *testing.B, merge pubsub.Pipe) {
	c := pubsub.NewCounter("c", 1)
	merge.Subscribe(c, 0)
	push := feed(merge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(temporal.At(i, temporal.Time(i)), i%2)
	}
}
