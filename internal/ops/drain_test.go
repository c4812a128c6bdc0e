package ops

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// staggered returns n elements of n distinct keys, element i valid over
// [i, i+n): nothing expires before the end of the stream, and every
// element's key holds back every later key's spans until it expires.
func staggered(n int) temporal.Batch {
	in := make(temporal.Batch, n)
	for i := range in {
		in[i] = el(tup(i, i), temporal.Time(i), temporal.Time(i+n))
	}
	return in
}

// γ's tail closes every group's final span, but releases each as soon as
// the holdback allows: with N keys whose spans close one boundary apart,
// at most a frame or so is pending at once, not all N.
func TestGroupTailPendsNoMoreThanItsHoldback(t *testing.T) {
	const n = 10000
	g := seqGroup()
	sink := &pendingSink{op: &g.ordered, ordered: true}
	if err := g.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	in := staggered(n)
	for i := 0; i < n; i += pubsub.FrameCap {
		g.ProcessBatch(in[i:min(i+pubsub.FrameCap, n)], 0)
	}
	if g.pending() != 0 {
		t.Fatalf("%d spans pending before the end, want none", g.pending())
	}
	g.Done(0)
	if sink.n != n || !sink.ordered {
		t.Fatalf("the sink was handed %d spans, in Start order %v; want %d in Start order", sink.n, sink.ordered, n)
	}
	if sink.peak > 2*pubsub.FrameCap {
		t.Fatalf("γ's tail had %d spans pending at once, want at most %d", sink.peak, 2*pubsub.FrameCap)
	}
}

// pendingSink records the most results its operator had pending when a
// frame arrived, and how many results and whether they came in Start
// order.
type pendingSink struct {
	op      *ordered
	peak, n int
	last    temporal.Time
	ordered bool
}

func (s *pendingSink) Name() string { return "pending" }
func (s *pendingSink) Done(int)     {}

func (s *pendingSink) ProcessBatch(b temporal.Batch, _ int) {
	s.peak = max(s.peak, s.op.pending())
	for _, e := range b {
		if s.n > 0 && e.Start < s.last {
			s.ordered = false
		}
		s.n++
		s.last = e.Start
	}
}

// Difference and intersect end through the same drain as γ: N keys, each
// with one element [i, i+N) on the inputs fed, close their final spans
// one boundary apart, and the results slab never holds them all.
func TestSetOpTailPendsNoMoreThanItsHoldback(t *testing.T) {
	const n = 10000
	for _, tc := range []struct {
		name   string
		op     func() *setOp
		inputs int // inputs 0 to inputs-1 get the elements
	}{
		{"intersect", func() *setOp { return &NewIntersect("∩", tupKey).setOp }, 2},
		{"difference", func() *setOp { return &NewDifference("∖", tupKey).setOp }, 1},
	} {
		o := tc.op()
		sink := &pendingSink{op: &o.ordered, ordered: true}
		if err := o.Subscribe(sink, 0); err != nil {
			t.Fatal(err)
		}
		in := staggered(n)
		for i := 0; i < n; i += pubsub.FrameCap {
			b := in[i:min(i+pubsub.FrameCap, n)]
			for input := range tc.inputs {
				o.ProcessBatch(b, input)
			}
		}
		o.Done(0)
		o.Done(1)
		if sink.n != n || !sink.ordered {
			t.Fatalf("%s: %d results, in Start order %v; want %d in Start order", tc.name, sink.n, sink.ordered, n)
		}
		if sink.peak > 2*pubsub.FrameCap {
			t.Fatalf("%s: the tail had %d results pending at once, want at most %d", tc.name, sink.peak, 2*pubsub.FrameCap)
		}
	}
}

// longStream returns a Start-ordered stream of n ints over keys
// [0, keys) (the key is v%keys): some elements are long and hold their
// key's spans back, and Ends fall on multiples of 4, so boundaries are
// shared by many elements.
func longStream(rng *rand.Rand, n, keys int) temporal.Batch {
	in := make(temporal.Batch, n)
	t := temporal.Time(0)
	for i := range in {
		t += temporal.Time(rng.Intn(3))
		d := temporal.Time(1 + rng.Intn(12))
		if rng.Intn(8) == 0 {
			d = temporal.Time(40 + rng.Intn(200))
		}
		end := (t + d + 3) &^ 3
		in[i] = el(rng.Intn(100)*keys+rng.Intn(keys), t, end)
	}
	return in
}

// tieSorted returns out as strings, each run of equal Starts sorted: two
// Start-ordered outputs that differ only in the order of their ties read
// the same.
func tieSorted(out []string, starts []temporal.Time) []string {
	sorted := slices.Clone(out)
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && starts[j] == starts[i] {
			j++
		}
		slices.Sort(sorted[i:j])
		i = j
	}
	return sorted
}

// recorder records each result as a string when it is delivered, so a
// lent row reads as it was; it borrows what it is handed.
type recorder struct {
	out    []string
	starts []temporal.Time
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Done(int)     {}

func (r *recorder) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		r.out = append(r.out, e.String())
		r.starts = append(r.starts, e.Start)
	}
}

// check fails unless got and want are both Start-ordered and equal, ties
// taken as multisets.
func (r *recorder) check(t *testing.T, name string, want *recorder) {
	t.Helper()
	for _, o := range []*recorder{r, want} {
		if !slices.IsSorted(o.starts) {
			t.Fatalf("%s: output violates stream order", name)
		}
	}
	if got, want := tieSorted(r.out, r.starts), tieSorted(want.out, want.starts); !slices.Equal(got, want) {
		t.Fatalf("%s: the drained tail emits\n%v\nthe one-shot flush\n%v", name, got, want)
	}
}

// oneShot makes c end its stream in one step, the reference the drained
// tail is held to: close every boundary at once, then flush what is
// pending.
func oneShot(c *ordered, advance func(temporal.Time)) {
	c.OnAllDone = func() {
		advance(temporal.MaxTime)
		c.releaseTo(temporal.MaxTime)
	}
}

// The drained tail emits what closing every boundary at once and then
// flushing does, in Start order, ties aside: over random streams with
// long elements, shared Ends, a HAVING that declines spans and MIN, whose
// stale groups recompute during the drain. Difference and intersect are
// held to their one-shot flush the same way. In the lent-row case a
// capture is still out at the end: the drain releases the results it
// copied and reuses their cells, and the capture still encodes its cut.
func TestDrainedTailMatchesOneShotFlush(t *testing.T) {
	const keys = 6
	key := func(v any) any { return v.(int) % keys }
	having := func(agg aggregate.Aggregate) bool { return int(agg.Value().(float64))%3 != 0 }
	imaged := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := longStream(rng, 300, keys)
		feed := func(op frameOp, input int) {
			for i := 0; i < len(in); {
				j := min(len(in), i+1+rng.Intn(pubsub.FrameCap))
				op.ProcessBatch(in[i:j], input)
				i = j
			}
		}

		groupOf := func() *GroupBy {
			return NewGroupBy("γ", key, aggregate.NewMin, func(k any, agg aggregate.Aggregate) (any, bool) {
				return GroupResult{Key: k, Agg: agg.Value()}, having(agg)
			})
		}
		got, want := &recorder{}, &recorder{}
		g, ref := groupOf(), groupOf()
		oneShot(&ref.ordered, ref.advance)
		g.Subscribe(got, 0)
		ref.Subscribe(want, 0)
		for _, op := range []*GroupBy{g, ref} {
			feed(op, 0)
			op.Done(0)
		}
		got.check(t, fmt.Sprintf("γ seed %d", seed), want)

		into := func() *GroupBy {
			return NewGroupInto[map[string]any]("γ", key, aggregate.NewMin, []string{"k", "min"}, func(k any, agg aggregate.Aggregate, vals []any) bool {
				if !having(agg) {
					return false
				}
				vals[0], vals[1] = k, agg.Value()
				return true
			})
		}
		got, want = &recorder{}, &recorder{}
		g, ref = into(), into()
		oneShot(&ref.ordered, ref.advance)
		g.Subscribe(got, 0)
		ref.Subscribe(want, 0)
		feed(g, 0)
		feed(ref, 0)
		cut, err := ft.EncodeState(g)
		if err != nil {
			t.Fatal(err)
		}
		imaged += g.pending()
		fn, err := g.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		g.Done(0)
		encoded, err := fn(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded, cut) {
			t.Fatalf("lent γ seed %d: the capture leased over the drain encodes %d bytes, its cut is %d: they differ", seed, len(encoded), len(cut))
		}
		ref.Done(0)
		got.check(t, fmt.Sprintf("lent γ seed %d", seed), want)

		other := longStream(rng, 300, keys)
		for _, mk := range []func() *setOp{
			func() *setOp { return &NewDifference("∖", key).setOp },
			func() *setOp { return &NewIntersect("∩", key).setOp },
		} {
			got, want := &recorder{}, &recorder{}
			o, ref := mk(), mk()
			oneShot(&ref.ordered, ref.advance)
			o.Subscribe(got, 0)
			ref.Subscribe(want, 0)
			for _, op := range []*setOp{o, ref} {
				op.ProcessBatch(in, 0)
				op.ProcessBatch(other, 1)
				op.Done(0)
				op.Done(1)
			}
			got.check(t, fmt.Sprintf("%s seed %d", o.Name(), seed), want)
		}
	}
	if imaged == 0 {
		t.Fatal("no capture imaged a pending row: the drain never released one")
	}
}
