package optimizer

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// A γ whose group records and aggregates come from chunks its factory
// owns emits what one emits whose every group has a factory, and so
// chunks, of its own. The input first holds hundreds of groups live, so
// many chunks fill, then churns through short-lived ones, so emptied
// groups retire and their spares are reused; halfway the node is
// captured and loaded into a new node, whose groups are rebuilt through
// its own factory, and collections run as it goes. Values are
// integers, so sums do not depend on the order elements are folded in.
func TestChunkedGroupsActFresh(t *testing.T) {
	x := cql.Field{Name: "x"}
	for _, c := range []struct {
		name  string
		calls []cql.Call
	}{
		{"invertible", []cql.Call{{Fn: "COUNT", Star: true}, {Fn: "SUM", Arg: x}, {Fn: "AVG", Arg: x}}},
		{"not invertible", []cql.Call{{Fn: "MAX", Arg: x}, {Fn: "COUNT", Star: true}, {Fn: "MIN", Arg: x}}},
	} {
		g := &Group{Keys: []cql.Expr{cql.Field{Name: "s.k"}}, Calls: c.calls}
		factory := func() aggregate.Factory {
			f, err := newRowAggFactory(g.Keys, g.Calls, scanShape{qual: "s"})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		node := func(f aggregate.Factory) (*ops.GroupBy, *pubsub.Collector) {
			gb := ops.NewGroupBy("γ", func(v any) any { return v.(cql.Tuple)["k"] }, f, func(_ any, agg aggregate.Aggregate) (any, bool) {
				return groupRow(g, agg.Value()), true
			})
			col := pubsub.NewCollector("col", 1)
			if err := gb.Subscribe(col, 0); err != nil {
				t.Fatal(err)
			}
			return gb, col
		}
		in := chunkedGroupsInput()
		feed := func(gb *ops.GroupBy, in []temporal.Element) {
			for i := 0; i < len(in); i += pubsub.FrameCap {
				gb.ProcessBatch(in[i:min(i+pubsub.FrameCap, len(in))], 0)
				if i%(16*pubsub.FrameCap) == 0 {
					runtime.GC()
				}
			}
		}

		// Every group of the reference takes a factory of its own.
		ref, refOut := node(func() aggregate.Aggregate { return factory()() })
		feed(ref, in)
		ref.Done(0)
		want := refOut.Elements()
		if len(want) < len(in) {
			t.Fatalf("%s: %d spans from %d elements", c.name, len(want), len(in))
		}

		whole, wholeOut := node(factory())
		feed(whole, in)
		whole.Done(0)
		sameSpans(t, c.name, wholeOut.Elements(), want)

		// A loaded node emits spans that share a Start in its groups'
		// order, which the load rebuilds by key.
		first, firstOut := node(factory())
		feed(first, in[:len(in)/2])
		fn, err := first.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		state, err := fn(nil)
		if err != nil {
			t.Fatal(err)
		}
		second, secondOut := node(factory())
		if err := second.LoadState(state); err != nil {
			t.Fatal(err)
		}
		feed(second, in[len(in)/2:])
		second.Done(0)
		sameSpans(t, c.name+", loaded", byStart(append(firstOut.Elements(), secondOut.Elements()...)), byStart(want))
	}
}

func sameSpans(t *testing.T, what string, got, want []temporal.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spans, the reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: span %d is %v, the reference's %v", what, i, got[i], want[i])
		}
	}
}

// byStart sorts spans by Start, then by key.
func byStart(es []temporal.Element) []temporal.Element {
	slices.SortStableFunc(es, func(a, b temporal.Element) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Value.(cql.Tuple)["s.k"].(int), b.Value.(cql.Tuple)["s.k"].(int))
	})
	return es
}

// chunkedGroupsInput is 3 000 elements over 600 keys valid up to 2 000
// ticks, then 3 000 over 40 keys valid up to 8.
func chunkedGroupsInput() []temporal.Element {
	rng := rand.New(rand.NewSource(54))
	var in []temporal.Element
	for i := 0; i < 6000; i++ {
		keys, life := 600, 2000
		if i >= 3000 {
			keys, life = 40, 8
		}
		v := cql.Tuple{"k": rng.Intn(keys), "x": rng.Intn(1000) - 500}
		in = append(in, temporal.NewElement(v, temporal.Time(i), temporal.Time(i+1+rng.Intn(life))))
	}
	return in
}
