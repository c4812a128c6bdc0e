package pipes_test

// Executable documentation: these examples appear in godoc and run under
// `go test` with verified output.

import (
	"fmt"

	"pipes"
)

// ExampleDSMS assembles the prototype engine end to end: stream
// registration, a CQL query, results.
func Example() {
	readings := []pipes.Element{
		pipes.At(pipes.Tuple{"celsius": 21.0}, 0),
		pipes.At(pipes.Tuple{"celsius": 24.5}, 1000),
		pipes.At(pipes.Tuple{"celsius": 25.1}, 2000),
	}
	dsms := pipes.NewDSMS(pipes.Config{})
	dsms.RegisterStream("sensor", pipes.NewSliceSource("sensor", readings), 10)

	q, err := dsms.RegisterQuery(
		`SELECT COUNT(*) AS hot FROM sensor [RANGE 10 SECONDS] WHERE celsius > 22`)
	if err != nil {
		panic(err)
	}
	out := pipes.NewCollector("out", 1)
	q.Subscribe(out)

	dsms.Start()
	dsms.Wait()
	out.Wait()

	peak := int64(0)
	for _, v := range out.Values() {
		if n, _ := v.(pipes.Tuple).Get("hot"); n.(int64) > peak {
			peak = n.(int64)
		}
	}
	fmt.Println("peak hot readings in any window:", peak)
	// Output: peak hot readings in any window: 2
}

// ExampleNewFilter shows the operator algebra used directly, without CQL.
func ExampleNewFilter() {
	src := pipes.NewSliceSource("src", []pipes.Element{
		pipes.At(3, 0), pipes.At(8, 1), pipes.At(5, 2), pipes.At(12, 3),
	})
	big := pipes.NewFilter("big", func(v any) bool { return v.(int) > 4 })
	out := pipes.NewCollector("out", 1)
	pipes.Connect(src, big).Subscribe(out, 0)
	pipes.Drive(src)
	out.Wait()
	fmt.Println(out.Values())
	// Output: [8 5 12]
}

// ExampleNewAggregate shows snapshot semantics: the count rises and falls
// as elements enter and leave the sliding window.
func ExampleNewAggregate() {
	src := pipes.NewSliceSource("src", []pipes.Element{
		pipes.At("a", 0), pipes.At("b", 5), pipes.At("c", 8),
	})
	win := pipes.NewTimeWindow("win", 10)
	cnt := pipes.NewAggregate("count", pipes.NewCount)
	out := pipes.NewCollector("out", 1)
	pipes.Connect(src, win, cnt).Subscribe(out, 0)
	pipes.Drive(src)
	out.Wait()
	for _, e := range out.Elements() {
		fmt.Printf("%v during %s\n", e.Value, e.Interval)
	}
	// Output:
	// 1 during [0,5)
	// 2 during [5,8)
	// 3 during [8,10)
	// 2 during [10,15)
	// 1 during [15,18)
}

// ExampleNewEquiJoin joins two streams on a key; results carry the
// intersection of the matched validity intervals.
func ExampleNewEquiJoin() {
	key := func(v any) any { return v.(string)[:1] }
	j := pipes.NewEquiJoin("j", key, key, func(l, r any) any {
		return l.(string) + "+" + r.(string)
	})
	out := pipes.NewCollector("out", 1)
	j.Subscribe(out, 0)

	left := pipes.NewSliceSource("left", []pipes.Element{pipes.NewElement("a1", 0, 10)})
	right := pipes.NewSliceSource("right", []pipes.Element{
		pipes.NewElement("a2", 2, 12), // matches a1 during [2,10)
		pipes.NewElement("b1", 5, 15), // no partner
	})
	left.Subscribe(j, 0)
	right.Subscribe(j, 1)
	pipes.Drive(left)
	pipes.Drive(right)
	out.Wait()
	for _, e := range out.Elements() {
		fmt.Printf("%v during %s\n", e.Value, e.Interval)
	}
	// Output: a1+a2 during [2,10)
}

// ExampleNewRippleJoin runs online aggregation over a join: the estimate
// is available long before the join completes and exact at the end.
func ExampleNewRippleJoin() {
	mk := func(vals ...int) []pipes.Element {
		out := make([]pipes.Element, len(vals))
		for i, v := range vals {
			out[i] = pipes.NewElement(v, pipes.Time(i), pipes.MaxTime)
		}
		return out
	}
	rj := pipes.NewRippleJoin(
		mk(1, 2, 3, 4), mk(2, 3, 3, 5),
		func(l, r any) bool { return l == r }, nil, nil, nil)
	exact := rj.Run()
	fmt.Println("matching pairs:", exact)
	// Output: matching pairs: 3
}

// ExampleCursorGroupBy shows the demand-driven side sharing the same
// online aggregates as the data-driven operators.
func ExampleCursorGroupBy() {
	cur := pipes.CursorFromSlice([]any{1, 2, 3, 4, 5, 6})
	grouped := pipes.CursorGroupBy(cur,
		func(v any) any { return v.(int) % 2 },
		pipes.NewSum)
	for _, g := range pipes.CursorCollect(grouped) {
		fmt.Println(g)
	}
	// Output:
	// {1 9}
	// {0 12}
}
