package ops

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// el builds an element.
func el(v any, s, e temporal.Time) temporal.Element { return temporal.NewElement(v, s, e) }

// runSingle feeds one ordered input through op and returns the output.
func runSingle(op frameOp, in []temporal.Element) []temporal.Element {
	col := pubsub.NewCollector("col", 1)
	op.Subscribe(col, 0)
	for _, e := range in {
		op.ProcessBatch(temporal.Batch{e}, 0)
	}
	op.Done(0)
	col.Wait()
	return col.Elements()
}

// runMerged feeds multiple per-input-ordered streams into op interleaved
// in global Start order (ties: lower input first), then closes all inputs.
func runMerged(op frameOp, inputs ...[]temporal.Element) []temporal.Element {
	col := pubsub.NewCollector("col", 1)
	op.Subscribe(col, 0)
	idx := make([]int, len(inputs))
	for {
		best := -1
		for i, in := range inputs {
			if idx[i] >= len(in) {
				continue
			}
			if best < 0 || in[idx[i]].Start < inputs[best][idx[best]].Start {
				best = i
			}
		}
		if best < 0 {
			break
		}
		op.ProcessBatch(temporal.Batch{inputs[best][idx[best]]}, best)
		idx[best]++
	}
	for i := range inputs {
		op.Done(i)
	}
	col.Wait()
	return col.Elements()
}

// runSequential feeds each input completely before the next (worst-case
// watermark skew).
func runSequential(op frameOp, inputs ...[]temporal.Element) []temporal.Element {
	col := pubsub.NewCollector("col", 1)
	op.Subscribe(col, 0)
	for i, in := range inputs {
		for _, e := range in {
			op.ProcessBatch(temporal.Batch{e}, i)
		}
		op.Done(i)
	}
	col.Wait()
	return col.Elements()
}

func sameElements(t *testing.T, got, want []temporal.Element) {
	t.Helper()
	key := func(e temporal.Element) string { return e.String() }
	g := map[string]int{}
	for _, e := range got {
		g[key(e)]++
	}
	w := map[string]int{}
	for _, e := range want {
		w[key(e)]++
	}
	if len(g) != len(w) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, n := range w {
		if g[k] != n {
			t.Fatalf("got %v, want %v (mismatch at %s)", got, want, k)
		}
	}
}

func assertOrdered(t *testing.T, out []temporal.Element) {
	t.Helper()
	if !temporal.OrderedByStart(out) {
		t.Fatalf("output violates stream order: %v", out)
	}
}

func TestFilter(t *testing.T) {
	in := []temporal.Element{el(1, 0, 5), el(2, 1, 6), el(3, 2, 7), el(4, 3, 8)}
	out := runSingle(NewFilter("f", func(v any) bool { return v.(int)%2 == 0 }), in)
	sameElements(t, out, []temporal.Element{el(2, 1, 6), el(4, 3, 8)})
	assertOrdered(t, out)
}

func TestMapPreservesIntervals(t *testing.T) {
	in := []temporal.Element{el(1, 0, 5), el(2, 3, 9)}
	out := runSingle(NewMap("m", func(v any) any { return v.(int) * 10 }), in)
	sameElements(t, out, []temporal.Element{el(10, 0, 5), el(20, 3, 9)})
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"filter":    func() { NewFilter("x", nil) },
		"map":       func() { NewMap("x", nil) },
		"timewin":   func() { NewTimeWindow("x", 0) },
		"tumbling":  func() { NewTumblingWindow("x", -1) },
		"countwin":  func() { NewCountWindow("x", 0) },
		"partwin":   func() { NewPartitionedWindow("x", nil, 1) },
		"partwin-n": func() { NewPartitionedWindow("x", func(v any) any { return v }, 0) },
		"union":     func() { NewUnion("x", 1) },
		"join":      func() { NewJoin("x", nil, nil, nil, nil) },
		"groupby":   func() { NewGroupBy("x", nil, nil, nil) },
		"split":     func() { NewSplit("x", 0) },
		"sample":    func() { NewSample("x", 0) },
		"mjoin-n":   func() { NewMJoin("x", 1, func(v any) any { return v }) },
		"mjoin-key": func() { NewMJoin("x", 2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected constructor panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTimeWindow(t *testing.T) {
	in := []temporal.Element{el("a", 0, 1), el("b", 7, 8)}
	out := runSingle(NewTimeWindow("w", 10), in)
	sameElements(t, out, []temporal.Element{el("a", 0, 10), el("b", 7, 17)})
}

func TestTimeWindowOverflowClamped(t *testing.T) {
	in := []temporal.Element{el("a", temporal.MaxTime-5, temporal.MaxTime-4)}
	out := runSingle(NewTimeWindow("w", 100), in)
	if out[0].End != temporal.MaxTime {
		t.Fatalf("overflowing window end = %v, want MaxTime", out[0].End)
	}
}

func TestUnboundedAndNowWindow(t *testing.T) {
	in := []temporal.Element{el("a", 3, 4)}
	out := runSingle(NewUnboundedWindow("u"), in)
	if out[0].End != temporal.MaxTime {
		t.Fatalf("unbounded end = %v", out[0].End)
	}
	out = runSingle(NewNowWindow("n"), []temporal.Element{el("a", 3, 99)})
	sameElements(t, out, []temporal.Element{el("a", 3, 4)})
}

func TestTumblingWindowAlignsToGranules(t *testing.T) {
	in := []temporal.Element{el("a", 3, 4), el("b", 9, 10), el("c", 10, 11), el("d", 25, 26)}
	out := runSingle(NewTumblingWindow("t", 10), in)
	sameElements(t, out, []temporal.Element{
		el("a", 0, 10), el("b", 0, 10), el("c", 10, 20), el("d", 20, 30),
	})
	assertOrdered(t, out)
}

func TestTumblingWindowNegativeTimes(t *testing.T) {
	in := []temporal.Element{el("a", -15, -14), el("b", -5, -4)}
	out := runSingle(NewTumblingWindow("t", 10), in)
	sameElements(t, out, []temporal.Element{el("a", -20, -10), el("b", -10, 0)})
}

// Every interval window maps an element starting at s to SEMANTICS.md's
// interval for it, and at the edges of time to a valid one: an end past
// MaxTime is clamped to MaxTime, a granule beginning before MinTime
// starts at MinTime, and UNBOUNDED ends at MaxTime from any Start.
func TestIntervalWindowEdges(t *testing.T) {
	const maxT, minT = temporal.MaxTime, temporal.MinTime
	for _, c := range []struct {
		name       string
		w          frameOp
		s          temporal.Time
		start, end temporal.Time
	}{
		{"range 100 at MaxTime-1", NewTimeWindow("w", 100), maxT - 1, maxT - 1, maxT},
		{"range 100 at MaxTime-100", NewTimeWindow("w", 100), maxT - 100, maxT - 100, maxT},
		{"range 100 at MaxTime-101", NewTimeWindow("w", 100), maxT - 101, maxT - 101, maxT - 1},
		{"range 100 at MinTime", NewTimeWindow("w", 100), minT, minT, minT + 100},
		{"now at MaxTime-1", NewNowWindow("w"), maxT - 1, maxT - 1, maxT},
		{"now at MaxTime-2", NewNowWindow("w"), maxT - 2, maxT - 2, maxT - 1},
		{"istream at MaxTime-1", NewIStream("w"), maxT - 1, maxT - 1, maxT},
		{"unbounded at -5", NewUnboundedWindow("w"), -5, -5, maxT},
		{"unbounded at MinTime", NewUnboundedWindow("w"), minT, minT, maxT},
		{"unbounded at MaxTime-1", NewUnboundedWindow("w"), maxT - 1, maxT - 1, maxT},
		{"tumbling 10 at MaxTime-1", NewTumblingWindow("w", 10), maxT - 1, maxT - 7, maxT},
		{"tumbling 10 at -1", NewTumblingWindow("w", 10), -1, -10, 0},
		{"tumbling 10 at -10", NewTumblingWindow("w", 10), -10, -10, 0},
		{"tumbling 10 at -11", NewTumblingWindow("w", 10), -11, -20, -10},
		{"tumbling 10 at MinTime", NewTumblingWindow("w", 10), minT, minT, minT + 8},
	} {
		out := runSingle(c.w, []temporal.Element{el("a", c.s, c.s+1)})
		if len(out) != 1 || !out[0].Valid() || out[0].Start != c.start || out[0].End != c.end {
			t.Errorf("%s: got %v, want [%d, %d)", c.name, out, c.start, c.end)
		}
	}
}

func TestCountWindowDisplacement(t *testing.T) {
	in := []temporal.Element{el("a", 0, 1), el("b", 5, 6), el("c", 9, 10)}
	out := runSingle(NewCountWindow("c", 2), in)
	// "a" displaced by "c" at t=9; "b" and "c" never displaced.
	sameElements(t, out, []temporal.Element{
		el("a", 0, 9), el("b", 5, temporal.MaxTime), el("c", 9, temporal.MaxTime),
	})
	assertOrdered(t, out)
}

func TestCountWindowSimultaneousArrivals(t *testing.T) {
	in := []temporal.Element{el("a", 5, 6), el("b", 5, 6)}
	out := runSingle(NewCountWindow("c", 1), in)
	for _, e := range out {
		if !e.Valid() {
			t.Fatalf("count window emitted empty interval: %v", e)
		}
	}
}

func TestPartitionedWindow(t *testing.T) {
	key := func(v any) any { return v.(string)[:1] }
	in := []temporal.Element{
		el("a1", 0, 1), el("b1", 1, 2), el("b2", 2, 3), el("a2", 3, 4),
	}
	out := runSingle(NewPartitionedWindow("p", key, 1), in)
	// b1 displaced by b2 at 2; a1 displaced by a2 at 3; a2 and b2 flushed.
	sameElements(t, out, []temporal.Element{
		el("b1", 1, 2), el("a1", 0, 3),
		el("a2", 3, temporal.MaxTime), el("b2", 2, temporal.MaxTime),
	})
	assertOrdered(t, out)
}

func TestUnionMergesInOrder(t *testing.T) {
	a := []temporal.Element{el(1, 0, 1), el(3, 4, 5), el(5, 8, 9)}
	b := []temporal.Element{el(2, 2, 3), el(4, 6, 7)}
	u := NewUnion("u", 2)
	out := runMerged(u, a, b)
	sameElements(t, out, append(append([]temporal.Element{}, a...), b...))
	assertOrdered(t, out)
}

func TestUnionSequentialFeedStillOrdered(t *testing.T) {
	a := []temporal.Element{el(1, 0, 1), el(3, 4, 5)}
	b := []temporal.Element{el(2, 2, 3), el(4, 6, 7)}
	out := runSequential(NewUnion("u", 2), a, b)
	sameElements(t, out, append(append([]temporal.Element{}, a...), b...))
	assertOrdered(t, out)
}

func TestUnionThreeInputs(t *testing.T) {
	a := []temporal.Element{el("a", 0, 1)}
	b := []temporal.Element{el("b", 1, 2)}
	c := []temporal.Element{el("c", 2, 3)}
	out := runMerged(NewUnion("u", 3), a, b, c)
	if len(out) != 3 {
		t.Fatalf("union output %v", out)
	}
	assertOrdered(t, out)
}

func join2(l, r any) any { return Pair{Left: l, Right: r} }

func TestEquiJoinBasics(t *testing.T) {
	key := func(v any) any { return v.(int) % 10 }
	left := []temporal.Element{el(1, 0, 10), el(2, 1, 11)}
	right := []temporal.Element{el(11, 2, 12), el(3, 3, 13)}
	j := NewEquiJoin("j", key, key, nil)
	out := runMerged(j, left, right)
	sameElements(t, out, []temporal.Element{
		el(Pair{Left: 1, Right: 11}, 2, 10),
	})
	assertOrdered(t, out)
}

func TestJoinIntervalIntersection(t *testing.T) {
	// Overlap [5,8) only.
	left := []temporal.Element{el(1, 0, 8)}
	right := []temporal.Element{el(1, 5, 20)}
	j := NewThetaJoin("j", func(l, r any) bool { return l == r }, join2)
	out := runMerged(j, left, right)
	sameElements(t, out, []temporal.Element{el(Pair{Left: 1, Right: 1}, 5, 8)})
}

func TestJoinNoOverlapNoResult(t *testing.T) {
	left := []temporal.Element{el(1, 0, 5)}
	right := []temporal.Element{el(1, 5, 10)} // half-open: no shared instant
	j := NewThetaJoin("j", func(l, r any) bool { return l == r }, join2)
	if out := runMerged(j, left, right); len(out) != 0 {
		t.Fatalf("adjacent intervals joined: %v", out)
	}
}

func TestJoinSequentialFeed(t *testing.T) {
	// Entire left then entire right: results must match the merged feed.
	key := func(v any) any { return v.(int) % 5 }
	var left, right []temporal.Element
	for i := 0; i < 20; i++ {
		left = append(left, el(i, temporal.Time(i), temporal.Time(i+15)))
		right = append(right, el(i+100, temporal.Time(i), temporal.Time(i+15)))
	}
	merged := runMerged(NewEquiJoin("j", key, key, nil), left, right)
	seq := runSequential(NewEquiJoin("j", key, key, nil), left, right)
	sameElements(t, seq, merged)
	assertOrdered(t, seq)
	assertOrdered(t, merged)
}

func TestJoinStatePurging(t *testing.T) {
	// With short validity, the sweep areas must stay small.
	key := func(v any) any { return 0 }
	j := NewEquiJoin("j", key, key, nil)
	col := pubsub.NewCollector("col", 1)
	j.Subscribe(col, 0)
	for i := 0; i < 1000; i++ {
		ts := temporal.Time(i)
		j.ProcessBatch(temporal.Batch{el(i, ts, ts+5)}, i%2)
	}
	if s := j.StateSize(); s > 50 {
		t.Fatalf("join state grew to %d entries despite 5-tick windows", s)
	}
}

func TestBandJoin(t *testing.T) {
	num := func(v any) float64 { return float64(v.(int)) }
	left := []temporal.Element{el(10, 0, 100)}
	right := []temporal.Element{el(12, 1, 100), el(14, 2, 100)}
	j := NewBandJoin("bj", num, num, 2, join2)
	out := runMerged(j, left, right)
	sameElements(t, out, []temporal.Element{el(Pair{Left: 10, Right: 12}, 1, 100)})
}

// TestBandJoinNaNKeysMatchNothing checks a band join whose inputs carry
// NaN keys against a nested-loop reference: a NaN key matches nothing
// under |k − k'| ≤ band, and must not disturb the matches of the others.
func TestBandJoinNaNKeysMatchNothing(t *testing.T) {
	nan := math.NaN()
	const band = 0.5
	var left, right []temporal.Element
	for i, k := range []float64{1, 5, nan, 7, 9, nan, 3, 4, 6, 8, 2} {
		left = append(left, el(k, temporal.Time(i), 100))
	}
	for i, k := range []float64{nan, 1, 2, 3, 4, nan, 5, 6, 7, 8, 9} {
		right = append(right, el(k, temporal.Time(20+i), 100))
	}
	var want []temporal.Element
	for _, l := range left {
		for _, r := range right {
			if !(math.Abs(l.Value.(float64)-r.Value.(float64)) <= band) {
				continue
			}
			if iv, ok := l.Intersect(r.Interval); ok {
				want = append(want, temporal.Element{Value: Pair{Left: l.Value, Right: r.Value}, Interval: iv})
			}
		}
	}
	if len(want) != 9 {
		t.Fatalf("reference has %d matches, want 9", len(want))
	}
	num := func(v any) float64 { return v.(float64) }
	out := runMerged(NewBandJoin("bj", num, num, band, join2), left, right)
	sameElements(t, out, want)
}

func TestMJoinMatchesBinaryJoinTree(t *testing.T) {
	key := func(v any) any { return v.(int) % 3 }
	mk := func(base int) []temporal.Element {
		var out []temporal.Element
		for i := 0; i < 15; i++ {
			out = append(out, el(base+i, temporal.Time(i), temporal.Time(i+20)))
		}
		return out
	}
	a, b, c := mk(0), mk(100), mk(200)

	m := NewMJoin("m", 3, key)
	mout := runMerged(m, a, b, c)
	assertOrdered(t, mout)

	// Binary tree: (a ⋈ b) ⋈ c with tuple flattening.
	j1 := NewEquiJoin("j1", key, key, func(l, r any) any { return []any{l, r} })
	j1out := runMerged(j1, a, b)
	pairKey := func(v any) any { return key(v.([]any)[0]) }
	j2 := NewEquiJoin("j2", pairKey, key, func(l, r any) any {
		p := l.([]any)
		return []any{p[0], p[1], r}
	})
	j2out := runMerged(j2, j1out, c)

	sameElements(t, mout, j2out)
}

func TestGroupByCountSpans(t *testing.T) {
	in := []temporal.Element{el("x", 0, 10), el("y", 5, 15)}
	g := NewAggregate("cnt", aggregate.NewCount)
	out := runSingle(g, in)
	sameElements(t, out, []temporal.Element{
		el(int64(1), 0, 5), el(int64(2), 5, 10), el(int64(1), 10, 15),
	})
	assertOrdered(t, out)
}

func TestGroupByKeyedAvg(t *testing.T) {
	key := func(v any) any { return v.(int) % 2 }
	avgOf := func(v any) any { return v } // aggregate over the int values
	_ = avgOf
	in := []temporal.Element{el(2, 0, 10), el(4, 0, 10), el(3, 0, 10)}
	g := NewGroupBy("avg", key, aggregate.NewAvg, nil)
	out := runSingle(g, in)
	sameElements(t, out, []temporal.Element{
		el(GroupResult{Key: 0, Agg: 3.0}, 0, 10),
		el(GroupResult{Key: 1, Agg: 3.0}, 0, 10),
	})
}

// An output function that declines a span drops exactly that span: every
// span it accepts carries the value and interval the default output
// gives it.
func TestGroupByDeclinedSpansEmitNothing(t *testing.T) {
	key := func(v any) any { return v.(int) % 2 }
	in := []temporal.Element{el(1, 0, 10), el(2, 2, 6), el(3, 4, 12), el(4, 5, 8), el(5, 9, 14)}
	all := runSingle(NewGroupBy("g", key, aggregate.NewCount, nil), in)
	var want []temporal.Element
	for _, e := range all {
		if e.Value.(GroupResult).Agg.(int64) >= 2 {
			want = append(want, e)
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("the input should give spans on both sides of the cut: %v", all)
	}
	atLeastTwo := func(k any, a aggregate.Aggregate) (any, bool) {
		n := a.Value().(int64)
		return GroupResult{Key: k, Agg: n}, n >= 2
	}
	sameElements(t, runSingle(NewGroupBy("g", key, aggregate.NewCount, atLeastTwo), in), want)
}

// A new key that takes over an emptied group starts from a fresh
// aggregate and no trace: nothing of the old key shows in its spans.
func TestGroupByRecycledGroupStartsFresh(t *testing.T) {
	key := func(v any) any { return v.(int) % 10 }
	traced := el(100, 0, 5)
	traced.Trace = "old"
	in := []temporal.Element{traced, el(1, 1, 20), el(2, 6, 10)}
	g := NewGroupBy("max", key, aggregate.NewMax, nil)
	col := pubsub.NewCollector("col", 1)
	g.Subscribe(col, 0)
	g.ProcessBatch(temporal.Batch{in[0]}, 0)
	old := g.groups.ids[0]
	in = in[1:]
	for _, e := range in {
		g.ProcessBatch(temporal.Batch{e}, 0)
	}
	if g.groups.ids[2] != old {
		t.Fatal("key 2 did not take over key 0's emptied group")
	}
	g.Done(0)
	col.Wait()
	var spans []temporal.Element
	for _, e := range col.Elements() {
		if e.Value.(GroupResult).Key == 2 {
			spans = append(spans, e)
		}
	}
	if len(spans) != 1 || spans[0].Value.(GroupResult).Agg != 2.0 || spans[0].Trace != nil || spans[0].Interval != temporal.NewInterval(6, 10) {
		t.Errorf("key 2 emitted %v, want one span of max 2 over [6,10) untraced", spans)
	}
}

func TestGroupByMinRecomputeOnExpiry(t *testing.T) {
	// Min is non-invertible: after the minimum expires, the aggregate must
	// be recomputed from the survivors.
	in := []temporal.Element{el(1, 0, 5), el(7, 0, 10), el(3, 2, 10)}
	g := NewAggregate("min", aggregate.NewMin)
	out := runSingle(g, in)
	sameElements(t, out, []temporal.Element{
		el(1.0, 0, 2), el(1.0, 2, 5), el(3.0, 5, 10),
	})
}

func TestGroupByEmptyGaps(t *testing.T) {
	// Gap between elements: no output during the gap, group resets.
	in := []temporal.Element{el(5, 0, 2), el(6, 10, 12)}
	g := NewAggregate("sum", aggregate.NewSum)
	out := runSingle(g, in)
	sameElements(t, out, []temporal.Element{el(5.0, 0, 2), el(6.0, 10, 12)})
}

func TestGroupByUnboundedElements(t *testing.T) {
	in := []temporal.Element{el(1, 0, temporal.MaxTime), el(2, 5, temporal.MaxTime)}
	g := NewAggregate("cnt", aggregate.NewCount)
	out := runSingle(g, in)
	sameElements(t, out, []temporal.Element{
		el(int64(1), 0, 5), el(int64(2), 5, temporal.MaxTime),
	})
}

func TestCoalesceMergesAdjacentEqualValues(t *testing.T) {
	in := []temporal.Element{el("v", 0, 5), el("v", 5, 10), el("v", 12, 15), el("w", 3, 8)}
	out := runSingle(NewCoalesce("c", nil), in)
	sameElements(t, out, []temporal.Element{
		el("v", 0, 10), el("v", 12, 15), el("w", 3, 8),
	})
	assertOrdered(t, out)
}

func TestCoalesceOverlapExtension(t *testing.T) {
	in := []temporal.Element{el("v", 0, 10), el("v", 4, 6)} // contained: no extension
	out := runSingle(NewCoalesce("c", nil), in)
	sameElements(t, out, []temporal.Element{el("v", 0, 10)})
}

func TestDistinctSnapshotSemantics(t *testing.T) {
	in := []temporal.Element{el("a", 0, 10), el("a", 2, 6), el("b", 1, 4)}
	out := runSingle(NewDistinct("d"), in)
	sameElements(t, out, []temporal.Element{el("a", 0, 10), el("b", 1, 4)})
}

func TestDifferenceBasic(t *testing.T) {
	plus := []temporal.Element{el("v", 0, 10), el("v", 0, 10)}
	minus := []temporal.Element{el("v", 2, 6)}
	d := NewDifference("diff", nil)
	out := runMerged(d, plus, minus)
	// m0=2 throughout [0,10); m1=1 during [2,6): output 2,1,2 copies.
	sameElements(t, out, []temporal.Element{
		el("v", 0, 2), el("v", 0, 2),
		el("v", 2, 6),
		el("v", 6, 10), el("v", 6, 10),
	})
	assertOrdered(t, out)
}

func TestDifferenceSubtractsToZero(t *testing.T) {
	plus := []temporal.Element{el("v", 0, 10)}
	minus := []temporal.Element{el("v", 0, 10)}
	out := runMerged(NewDifference("diff", nil), plus, minus)
	if len(out) != 0 {
		t.Fatalf("difference of identical streams = %v, want empty", out)
	}
}

func TestDifferenceSequentialFeed(t *testing.T) {
	plus := []temporal.Element{el("v", 0, 4), el("w", 1, 5)}
	minus := []temporal.Element{el("v", 2, 3)}
	seq := runSequential(NewDifference("d", nil), plus, minus)
	mer := runMerged(NewDifference("d", nil), plus, minus)
	sameElements(t, seq, mer)
	assertOrdered(t, seq)
}

func TestSplitChopsAtGranules(t *testing.T) {
	in := []temporal.Element{el("a", 3, 17)}
	out := runSingle(NewSplit("s", 5), in)
	sameElements(t, out, []temporal.Element{
		el("a", 3, 5), el("a", 5, 10), el("a", 10, 15), el("a", 15, 17),
	})
	assertOrdered(t, out)
}

func TestSplitAlignedElementUnchanged(t *testing.T) {
	in := []temporal.Element{el("a", 5, 10)}
	out := runSingle(NewSplit("s", 5), in)
	sameElements(t, out, []temporal.Element{el("a", 5, 10)})
}

func TestSplitOrderAcrossElements(t *testing.T) {
	in := []temporal.Element{el("a", 0, 20), el("b", 3, 8)}
	out := runSingle(NewSplit("s", 5), in)
	assertOrdered(t, out)
	if len(out) != 6 {
		t.Fatalf("split produced %d pieces, want 6: %v", len(out), out)
	}
}

func TestSampleEmitsSnapshots(t *testing.T) {
	in := []temporal.Element{el("a", 0, 12), el("b", 3, 9), el("c", 11, 30)}
	out := runSingle(NewSample("r", 5), in)
	// Boundaries 0,5,10,... snapshot: t=0:{a}, t=5:{a,b}, t=10:{a},
	// t=15:{c}, t=20:{c}, t=25:{c}; finish drains to maxEnd=30.
	want := []temporal.Element{
		el("a", 0, 5),
		el("a", 5, 10), el("b", 5, 10),
		el("a", 10, 15),
		el("c", 15, 20), el("c", 20, 25), el("c", 25, 30),
	}
	sameElements(t, out, want)
	assertOrdered(t, out)
}

func TestIStream(t *testing.T) {
	in := []temporal.Element{el("a", 2, 50)}
	out := runSingle(NewIStream("i"), in)
	sameElements(t, out, []temporal.Element{el("a", 2, 3)})
}

func TestDStreamOrdersByEnd(t *testing.T) {
	in := []temporal.Element{el("a", 0, 20), el("b", 1, 5), el("c", 30, 31)}
	out := runSingle(NewDStream("d"), in)
	sameElements(t, out, []temporal.Element{
		el("b", 5, 6), el("a", 20, 21), el("c", 31, 32),
	})
	assertOrdered(t, out)
}

func TestDStreamSkipsUnbounded(t *testing.T) {
	in := []temporal.Element{el("a", 0, temporal.MaxTime)}
	if out := runSingle(NewDStream("d"), in); len(out) != 0 {
		t.Fatalf("DStream emitted for unbounded element: %v", out)
	}
}

// newTestCore returns an ordered core publishing into a collector, whose
// per-element body buffers the element as a pending result, and a
// function that flushes the core's frame and returns everything the
// collector holds.
func newTestCore(t *testing.T, inputs int) (*ordered, func() []temporal.Element) {
	t.Helper()
	c := &ordered{}
	c.init("o", inputs, func(_ int, e temporal.Element) { c.add(e) }, nil)
	col := pubsub.NewCollector("col", 1)
	if err := c.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	return c, func() []temporal.Element {
		c.Flush()
		return col.Elements()
	}
}

// The input merge applies an arrival once every open input has one
// queued, so the watermark is the Start of the last arrival applied: a
// silent input holds every result back, and a done input no longer
// counts.
func TestOrderBufferWatermarks(t *testing.T) {
	c, released := newTestCore(t, 2)
	c.ProcessBatch(temporal.Batch{el("b", 10, 11)}, 0)
	if got := released(); len(got) != 0 {
		t.Fatalf("released %v with one silent input", got)
	}
	c.ProcessBatch(temporal.Batch{el("a", 4, 5)}, 1)
	if got := released(); len(got) != 1 || got[0].Value != "a" {
		t.Fatalf("released %v at watermark 4, want a", got)
	}
	c.Done(1)
	if got := released(); len(got) != 2 || got[1].Value != "b" {
		t.Fatalf("released %v after input 1 is done, want a, b", got)
	}
	c.ProcessBatch(temporal.Batch{el("c", 12, 13)}, 0)
	c.Done(0)
	if got := released(); len(got) != 3 || got[2].Value != "c" {
		t.Fatalf("released %v after every input is done, want a, b, c", got)
	}
}

func TestOrderBufferReleaseOrder(t *testing.T) {
	c, released := newTestCore(t, 1)
	c.add(el("c", 5, 6))
	c.add(el("a", 1, 2))
	c.add(el("b", 3, 4))
	c.progress(3)
	if got := released(); len(got) != 2 || got[0].Value != "a" || got[1].Value != "b" {
		t.Fatalf("released %v", got)
	}
	c.Done(0)
	if got := released(); len(got) != 3 || got[2].Value != "c" {
		t.Fatalf("flushed %v", got)
	}
}

// The holdback is the earliest entry of its indexed heap: moving a key's
// entry up releases what it held back, and removing it leaves nothing
// behind.
func TestOrderBufferHoldbackIsExact(t *testing.T) {
	c, released := newTestCore(t, 1)
	const k = 0 // the key's owner id
	c.holds.Push(k, 2)
	c.add(el("a", 1, 2))
	c.add(el("b", 3, 4))
	c.add(el("c", 6, 7))
	c.progress(10)
	if got := released(); len(got) != 1 || got[0].Value != "a" {
		t.Fatalf("released %v under holdback 2, want a", got)
	}
	c.holds.Set(k, 5)
	c.progress(10)
	if got := released(); len(got) != 2 || got[1].Value != "b" {
		t.Fatalf("released %v under holdback 5, want a, b", got)
	}
	c.holds.Remove(k)
	c.progress(10)
	if got := released(); len(got) != 3 || c.holds.Len() != 0 {
		t.Fatalf("released %v with %d holdback entries left, want a, b, c and none", got, c.holds.Len())
	}
}

// A γ held back by one long element keeps one holdback entry per group,
// however many spans its other groups close behind it: ten thousand
// elements over three other keys leave four entries, not one per span.
func TestHeldBackGroupByHoldsOneEntryPerGroup(t *testing.T) {
	g := NewGroupBy("g", func(v any) any { return v.(int) % 4 }, aggregate.NewCount, nil)
	in := temporal.Batch{el(0, 0, 1<<40)}
	for i := 1; i <= 10000; i++ {
		in = append(in, el(4*i+1+i%3, temporal.Time(i), temporal.Time(i+5)))
	}
	g.ProcessBatch(in, 0)
	if g.pending() == 0 {
		t.Fatal("the long element held nothing back")
	}
	if n := g.holds.Len(); n > 4 {
		t.Fatalf("%d holdback entries for %d groups, want one a group", n, g.GroupCount())
	}
}

func TestJoinShedReducesState(t *testing.T) {
	key := func(v any) any { return 0 }
	j := NewEquiJoin("j", key, key, nil)
	col := pubsub.NewCollector("col", 1)
	j.Subscribe(col, 0)
	for i := 0; i < 100; i++ {
		j.ProcessBatch(temporal.Batch{el(i, temporal.Time(i), temporal.Time(i+1000))}, 0)
	}
	before := j.StateSize()
	dropped := j.Shed(40)
	if dropped != 40 {
		t.Fatalf("Shed dropped %d, want 40", dropped)
	}
	if j.StateSize() != before-40 {
		t.Fatalf("state = %d, want %d", j.StateSize(), before-40)
	}
	if j.MemoryUsage() <= 0 {
		t.Fatal("memory usage not reported")
	}
}

func TestGroupCountAndMemory(t *testing.T) {
	key := func(v any) any { return v.(int) % 5 }
	g := NewGroupBy("g", key, aggregate.NewCount, nil)
	col := pubsub.NewCollector("col", 1)
	g.Subscribe(col, 0)
	for i := 0; i < 50; i++ {
		g.ProcessBatch(temporal.Batch{el(i, temporal.Time(i), temporal.Time(i+100))}, 0)
	}
	if g.GroupCount() != 5 {
		t.Fatalf("GroupCount = %d, want 5", g.GroupCount())
	}
	if g.MemoryUsage() <= 0 {
		t.Fatal("memory usage not reported")
	}
}

// Pending results are stored once: a held-back γ that closes 10 000
// spans at one boundary grows a 16-byte slot heap (about 69 bytes a
// result, growth copies included) and a slab whose chunks are never
// copied (about 54: the first chunk doubles to 1 024 elements, and every
// later one is 49 152 bytes, six whole pages, which the allocator rounds
// not at all), under 124 bytes a result. A heap of whole elements, grown
// by copying 56-byte entries, allocated about 265. The first round
// declines its spans, so the groups' own structures are warm and the
// second round measures the pending results alone.
func TestHeldBackGroupByStoresResultsOnce(t *testing.T) {
	const n = 10000
	keep := false
	g := NewGroupBy("g", func(v any) any { return v }, aggregate.NewCount,
		func(k any, _ aggregate.Aggregate) (any, bool) { return k, keep })
	round := func(r temporal.Time) (bytes uint64) {
		// Group 0 holds every later span back; groups 1..n each hold
		// one element that ends at the round's boundary, and the last
		// element closes them all.
		base := r * (n + 2)
		in := temporal.Batch{el(0, base, base+n+2)}
		for i := 1; i <= n; i++ {
			in = append(in, el(i, base+temporal.Time(i), base+n+1))
		}
		g.ProcessBatch(in, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.ProcessBatch(temporal.Batch{el(-1, base+n+1, base+n+2)}, 0)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	round(0)
	keep = true
	bytes := round(1)
	if got := g.pending(); got != n {
		t.Fatalf("%d results pending, want %d", got, n)
	}
	perResult := float64(bytes) / n
	t.Logf("%.1f bytes allocated a pending result", perResult)
	if perResult >= 124 {
		t.Fatalf("holding %d results back allocates %.1f bytes a result, want under 124", n, perResult)
	}
}

// A new key allocates nothing of its own in a keyed operator but what
// the operator keeps outside its table, γ's aggregate: the key's elements
// go into the node slab's chunks, its record into the table's chunks and
// its heap entries into arrays, all grown amortized. N distinct keys
// through a COUNT γ allocate one COUNT each and the amortized growth;
// through DISTINCT, a Difference (input 1 done) and a ROWS-4
// PartitionedWindow, the amortized growth alone. A map of pointers to
// per-key structs allocated one a key (1.011) and a queue a partition
// besides (2.010). Every key costs at least 16 bytes of MemoryUsage, so
// an operator that kept none is caught too.
func TestKeysAllocateOnlyWhatTheyKeep(t *testing.T) {
	const n = 20000
	in := make(temporal.Batch, n)
	for i := range in {
		in[i] = el(1000+i, temporal.Time(i), temporal.Time(i+n))
	}
	identity := func(v any) any { return v }
	difference := func() frameOp {
		d := NewDifference("d", nil)
		d.Done(1)
		return d
	}
	for _, c := range []struct {
		name  string
		make  func() frameOp
		limit float64
	}{
		{"group-by", func() frameOp { return NewGroupBy("g", identity, aggregate.NewCount, nil) }, 1.05},
		{"distinct", func() frameOp { return NewDistinct("d") }, 0.05},
		{"difference", difference, 0.05},
		{"partitioned window", func() frameOp { return NewPartitionedWindow("w", identity, 4) }, 0.05},
	} {
		op := c.make()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i += pubsub.FrameCap {
			op.ProcessBatch(in[i:min(i+pubsub.FrameCap, n)], 0)
		}
		runtime.ReadMemStats(&after)
		if keys := op.(interface{ MemoryUsage() int }).MemoryUsage(); keys < n*16 {
			t.Fatalf("%s holds %d bytes after %d keys", c.name, keys, n)
		}
		perKey := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %.3f allocations a key", c.name, perKey)
		if perKey > c.limit {
			t.Errorf("%s: %d distinct keys allocate %.3f times a key, want at most %.2f", c.name, n, perKey, c.limit)
		}
	}
}

// An ungrouped AVG, as a hand-wired chain ends in, boxes its spans'
// results into chunks the node owns (aggregate.Boxes), so a span costs
// no allocation of its own: at most 0.05 a span, where a box per span
// read 1.0.
func TestAggregateSpansShareChunks(t *testing.T) {
	const n, window = 20000, 100
	in := make(temporal.Batch, n)
	for i := range in {
		in[i] = el(float64(i%900), temporal.Time(i), temporal.Time(i+window))
	}
	g := NewAggregate("avg", aggregate.NewAvg)
	sink := &pendingSink{op: &g.ordered}
	if err := g.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	feed := func(from, to int) {
		for i := from; i < to; i += pubsub.FrameCap {
			g.ProcessBatch(in[i:min(i+pubsub.FrameCap, to)], 0)
		}
	}
	feed(0, n/4) // the core's buffers grow to their working size
	spans := sink.n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed(n/4, n)
	runtime.ReadMemStats(&after)
	spans = sink.n - spans
	if spans < n/2 {
		t.Fatalf("%d elements emitted %d spans, want one an element", 3*n/4, spans)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(spans)
	t.Logf("%d spans: %.4f allocations a span", spans, per)
	if per > 0.05 {
		t.Errorf("an AVG over %d spans allocates %.4f times a span, want at most 0.05", spans, per)
	}
}

// DISTINCT over few values keeps one end entry per pending span: an
// extended span moves its entry, so a window of same-value arrivals does
// not pile up entries that wait to be skipped. Ten thousand elements of
// three values, each valid 1 000 ticks, leave three spans and three end
// entries, where a heap pushed at each extension held 1 001. The end
// heap counts in MemoryUsage.
func TestDistinctHoldsOneEndEntryPerSpan(t *testing.T) {
	const n = 10000
	in := make(temporal.Batch, n)
	for i := range in {
		in[i] = el(i%3, temporal.Time(i), temporal.Time(i+1000))
	}
	c := NewDistinct("d")
	for i := 0; i < n; i += pubsub.FrameCap {
		c.ProcessBatch(in[i:min(i+pubsub.FrameCap, n)], 0)
	}
	if spans, ends := len(c.spans.ids), c.ends.Len(); spans != 3 || ends != spans {
		t.Fatalf("%d end entries for %d pending spans, want one a span and 3 spans", ends, spans)
	}
	if got, want := c.MemoryUsage(), c.ends.Bytes()+c.spans.Lists.Bytes(); got < want {
		t.Fatalf("MemoryUsage %d, below the end heap's %d bytes and the span table's", got, want)
	}
}

// A set operation's expiry heap counts in its MemoryUsage: one key with
// 10 000 live elements holds 10 000 entries. They share one Start, so the
// key's open span stays open and the test emits nothing.
func TestSetOperationCountsItsExpiryHeap(t *testing.T) {
	const n = 10000
	d := NewDifference("d", nil)
	d.Done(1)
	in := make(temporal.Batch, n)
	for i := range in {
		in[i] = el("a", 0, temporal.Time(1+(i*7919)%n))
	}
	for i := 0; i < n; i += pubsub.FrameCap {
		d.ProcessBatch(in[i:min(i+pubsub.FrameCap, n)], 0)
	}
	if d.expiry.Len() != n {
		t.Fatalf("%d expiry entries for %d live elements", d.expiry.Len(), n)
	}
	if got, want := d.MemoryUsage(), d.expiry.Bytes(); got < want {
		t.Fatalf("MemoryUsage %d, below the expiry heap's %d bytes", got, want)
	}
}

func TestUnionPendingAccounting(t *testing.T) {
	u := NewUnion("u", 2)
	col := pubsub.NewCollector("col", 1)
	u.Subscribe(col, 0)
	u.ProcessBatch(temporal.Batch{el(1, 0, 1)}, 0)
	u.ProcessBatch(temporal.Batch{el(2, 5, 6)}, 0)
	if u.Pending() != 2 { // input 1 silent: nothing released
		t.Fatalf("Pending = %d, want 2", u.Pending())
	}
	u.Done(1)
	u.Done(0)
	col.Wait()
	if u.Pending() != 0 {
		t.Fatalf("Pending after done = %d", u.Pending())
	}
}

// Two equal-Start frames reach a two-input union, input 0's first in one
// run and input 1's first in the other: the output sequences are equal,
// with the tie broken by input index.
func TestUnionTieOrderIndependentOfArrival(t *testing.T) {
	frames := [2]temporal.Batch{
		{el("a0", 5, 9), el("a1", 5, 7), el("a2", 5, 6)},
		{el("b0", 5, 8), el("b1", 5, 6), el("b2", 5, 10)},
	}
	run := func(first int) []any {
		u := NewUnion("u", 2)
		col := pubsub.NewCollector("col", 1)
		u.Subscribe(col, 0)
		u.ProcessBatch(frames[first], first)
		u.ProcessBatch(frames[1-first], 1-first)
		u.Done(0)
		u.Done(1)
		col.Wait()
		var vs []any
		for _, e := range col.Elements() {
			vs = append(vs, e.Value)
		}
		return vs
	}
	want := []any{"a0", "a1", "a2", "b0", "b1", "b2"}
	for _, first := range []int{0, 1} {
		if got := run(first); !slices.Equal(got, want) {
			t.Errorf("input %d first: union emitted %v, want %v", first, got, want)
		}
	}
}

// sortByStart is a helper for deterministic comparisons where needed.
func sortByStart(elems []temporal.Element) {
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].Start < elems[j].Start })
}

func TestIntersectBasic(t *testing.T) {
	a := []temporal.Element{el("v", 0, 10), el("v", 0, 10), el("w", 0, 5)}
	b := []temporal.Element{el("v", 2, 6)}
	out := runMerged(NewIntersect("i", nil), a, b)
	// v: min(2,1)=1 copy during [2,6); w never in b.
	sameElements(t, out, []temporal.Element{el("v", 2, 6)})
	assertOrdered(t, out)
}

func TestIntersectDisjoint(t *testing.T) {
	a := []temporal.Element{el("x", 0, 5)}
	b := []temporal.Element{el("y", 0, 5)}
	if out := runMerged(NewIntersect("i", nil), a, b); len(out) != 0 {
		t.Fatalf("disjoint intersection = %v", out)
	}
}

func TestIntersectSequentialFeed(t *testing.T) {
	a := []temporal.Element{el("v", 0, 8), el("w", 1, 9)}
	b := []temporal.Element{el("v", 2, 5), el("w", 3, 12)}
	seq := runSequential(NewIntersect("i", nil), a, b)
	mer := runMerged(NewIntersect("i", nil), a, b)
	sameElements(t, seq, mer)
	assertOrdered(t, seq)
}

func TestIntersectMemoryReported(t *testing.T) {
	in := NewIntersect("i", nil)
	col := pubsub.NewCollector("col", 1)
	in.Subscribe(col, 0)
	in.ProcessBatch(temporal.Batch{el("v", 0, 100)}, 0)
	if in.MemoryUsage() <= 0 {
		t.Fatal("no memory reported")
	}
}

func TestSequencerRestoresOrder(t *testing.T) {
	in := []temporal.Element{
		el("a", 0, 1), el("c", 7, 8), el("b", 3, 4), el("d", 9, 10), el("e", 15, 16),
	}
	s := NewSequencer("seq", 10)
	out := runSingle(s, in)
	sameElements(t, out, in)
	assertOrdered(t, out)
	if s.LateDrops() != 0 {
		t.Fatalf("dropped %d within slack", s.LateDrops())
	}
}

func TestSequencerDropsBeyondSlack(t *testing.T) {
	s := NewSequencer("seq", 2)
	col := pubsub.NewCollector("col", 1)
	s.Subscribe(col, 0)
	s.ProcessBatch(temporal.Batch{el("a", 100, 101)}, 0)
	s.ProcessBatch(temporal.Batch{el("b", 103, 104)}, 0) // bound 101: releases a, watermark 100
	s.ProcessBatch(temporal.Batch{el("late", 50, 51)}, 0)
	s.Done(0)
	col.Wait()
	if s.LateDrops() != 1 {
		t.Fatalf("LateDrops = %d, want 1", s.LateDrops())
	}
	if col.Len() != 2 {
		t.Fatalf("collected %d, want 2", col.Len())
	}
	assertOrdered(t, col.Elements())
}

func TestSequencerZeroSlackPassesOrderedInput(t *testing.T) {
	in := []temporal.Element{el(1, 0, 1), el(2, 1, 2), el(3, 2, 3)}
	out := runSingle(NewSequencer("seq", 0), in)
	sameElements(t, out, in)
	assertOrdered(t, out)
}

func TestSequencerRandomizedProperty(t *testing.T) {
	// Shuffle an ordered stream within a bounded horizon; the sequencer
	// with slack >= horizon must reproduce it exactly, in order.
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		n := 200
		ordered := make([]temporal.Element, n)
		for i := range ordered {
			ordered[i] = el(i, temporal.Time(i*2), temporal.Time(i*2+5))
		}
		// Bounded disorder: arrival order = timestamps perturbed by
		// jitter below `horizon`, so no element trails the high-water
		// mark by more than `horizon`.
		const horizon = 8
		shuffled := append([]temporal.Element{}, ordered...)
		jitter := make([]int, n)
		for i := range jitter {
			jitter[i] = i*2 + rng.Intn(horizon)
		}
		sort.SliceStable(shuffled, func(a, b int) bool {
			return jitter[shuffled[a].Value.(int)] < jitter[shuffled[b].Value.(int)]
		})
		s := NewSequencer("seq", temporal.Time(horizon+1))
		out := runSingle(s, shuffled)
		if s.LateDrops() != 0 {
			t.Fatalf("trial %d: %d drops within slack", trial, s.LateDrops())
		}
		sameElements(t, out, ordered)
		assertOrdered(t, out)
	}
}

func TestSequencerNegativeSlackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative slack accepted")
		}
	}()
	NewSequencer("seq", -1)
}

func TestShedderPassThroughByDefault(t *testing.T) {
	s := NewShedder("sh", 1)
	out := runSingle(s, []temporal.Element{el(1, 0, 1), el(2, 1, 2)})
	if len(out) != 2 || s.Dropped() != 0 {
		t.Fatalf("default shedder dropped: out=%d dropped=%d", len(out), s.Dropped())
	}
}

func TestShedderDropRate(t *testing.T) {
	s := NewShedder("sh", 7)
	s.SetDropProbability(0.3)
	col := pubsub.NewCollector("col", 1)
	s.Subscribe(col, 0)
	const n = 20000
	for i := 0; i < n; i++ {
		s.ProcessBatch(temporal.Batch{el(i, temporal.Time(i), temporal.Time(i+1))}, 0)
	}
	s.Done(0)
	col.Wait()
	frac := float64(s.Dropped()) / float64(n)
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("drop fraction = %v, want ~0.3", frac)
	}
	if s.Seen() != n {
		t.Fatalf("Seen = %d", s.Seen())
	}
	assertOrdered(t, col.Elements())
}

func TestShedderFullDropAndClamping(t *testing.T) {
	s := NewShedder("sh", 1)
	s.SetDropProbability(7) // clamped to 1
	if s.DropProbability() != 1 {
		t.Fatalf("clamp high: %v", s.DropProbability())
	}
	out := runSingle(s, []temporal.Element{el(1, 0, 1), el(2, 1, 2)})
	if len(out) != 0 {
		t.Fatalf("p=1 forwarded %d", len(out))
	}
	s2 := NewShedder("sh", 1)
	s2.SetDropProbability(-3) // clamped to 0
	if s2.DropProbability() != 0 {
		t.Fatalf("clamp low: %v", s2.DropProbability())
	}
}

func TestShedderRuntimeAdjustment(t *testing.T) {
	s := NewShedder("sh", 9)
	col := pubsub.NewCollector("col", 1)
	s.Subscribe(col, 0)
	for i := 0; i < 100; i++ {
		s.ProcessBatch(temporal.Batch{el(i, temporal.Time(i), temporal.Time(i+1))}, 0)
	}
	if s.Dropped() != 0 {
		t.Fatal("dropped before adjustment")
	}
	s.SetDropProbability(1)
	for i := 100; i < 200; i++ {
		s.ProcessBatch(temporal.Batch{el(i, temporal.Time(i), temporal.Time(i+1))}, 0)
	}
	if s.Dropped() != 100 {
		t.Fatalf("dropped %d after p=1", s.Dropped())
	}
}

// The join's default Pairs are written into chunks the node owns. Every
// Pair handed out reads the values it joined after more chunks have
// filled, a collection has run and freed memory has been reused, and a
// run of matches costs one allocation a chunk, not one a match.
func TestJoinPairsReadBackAfterCollection(t *testing.T) {
	const n = 3000
	key := func(v any) any { return v.(int) % 3 }
	j := NewEquiJoin("j", key, key, nil)
	col := &valueKeeper{vals: make([]any, 0, n)}
	if err := j.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	var left temporal.Batch
	for i := 0; i < n; i++ {
		left = append(left, el(i, temporal.Time(i), temporal.Time(n+10)))
	}
	j.ProcessBatch(left, 0)
	j.ProcessBatch(temporal.Batch{el(n, n, n+10)}, 1) // matches the n/3 lefts of key 0
	// The merge applies input 1's element once input 0 can bring nothing
	// before it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j.Done(0)
	runtime.ReadMemStats(&after)
	runtime.GC()
	junk := make([][]Pair, 256)
	for i := range junk {
		junk[i] = make([]Pair, 16)
		for k := range junk[i] {
			junk[i][k] = Pair{Left: "junk", Right: -1}
		}
	}
	got := col.vals
	if len(got) != n/3 {
		t.Fatalf("%d matches, want %d", len(got), n/3)
	}
	for i, v := range got {
		if want := (Pair{Left: 3 * i, Right: n}); v != any(want) {
			t.Fatalf("match %d reads %#v after more chunks and a collection, want %#v", i, v, want)
		}
	}
	runtime.KeepAlive(junk)
	per := float64(after.Mallocs-before.Mallocs) / float64(len(got))
	t.Logf("%d matches: %.3f allocations each", len(got), per)
	if per > 1.0/8 {
		t.Fatalf("a match allocates %.3f times, want about one allocation a chunk of 16", per)
	}
}

// valueKeeper keeps every value it is handed in room made beforehand.
type valueKeeper struct{ vals []any }

func (k *valueKeeper) Name() string      { return "keeper" }
func (k *valueKeeper) Done(int)          {}
func (k *valueKeeper) KeepsValues() bool { return true }

func (k *valueKeeper) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		k.vals = append(k.vals, e.Value)
	}
}
