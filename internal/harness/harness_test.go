package harness_test

import (
	"math/rand"
	"testing"
	"time"

	"pipes/internal/aggregate"
	"pipes/internal/harness"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
)

// randStream produces an ordered stream of n elements with values in
// [0, vals) and durations in [1, maxDur].
func randStream(rng *rand.Rand, n, vals int, maxDur temporal.Time) []temporal.Element {
	out := make([]temporal.Element, n)
	t := temporal.Time(0)
	for i := range out {
		t += temporal.Time(rng.Intn(4))
		d := temporal.Time(rng.Intn(int(maxDur))) + 1
		out[i] = temporal.NewElement(rng.Intn(vals), t, t+d)
	}
	return out
}

// boundary splices a scheduler buffer between src and (sink, input) and
// appends its task to *tasks.
func boundary(t *testing.T, name string, src pubsub.Source, sink pubsub.Sink, input int, tasks *[]sched.Task) {
	t.Helper()
	bt, err := sched.Boundary(name, src, sink, input)
	if err != nil {
		t.Fatalf("boundary %s: %v", name, err)
	}
	*tasks = append(*tasks, bt)
}

// plans is the table of query-graph shapes stressed below. Every Build
// places explicit buffers at virtual-node boundaries so the graph
// decomposes into several schedulable tasks — single-task plans would not
// exercise cross-worker interleavings at all.
func plans(t *testing.T) []harness.Plan {
	rng := rand.New(rand.NewSource(7001))
	mod3 := func(v any) any { return v.(int) % 3 }
	combine := func(l, r any) any { return ops.Pair{Left: l, Right: r} }

	return []harness.Plan{
		{
			// The issue's flagship shape: filter → window → join → aggregate.
			Name:   "filter-window-join-aggregate",
			Inputs: [][]temporal.Element{randStream(rng, 50, 12, 1), randStream(rng, 50, 12, 1)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				var tasks []sched.Task
				f0 := ops.NewFilter("f0", func(v any) bool { return v.(int) < 10 })
				f1 := ops.NewFilter("f1", func(v any) bool { return v.(int) > 1 })
				boundary(t, "b.in0", in[0], f0, 0, &tasks)
				boundary(t, "b.in1", in[1], f1, 0, &tasks)
				w0 := ops.NewTimeWindow("w0", 8)
				w1 := ops.NewTimeWindow("w1", 8)
				f0.Subscribe(w0, 0)
				f1.Subscribe(w1, 0)
				j := ops.NewEquiJoin("j", mod3, mod3, combine)
				boundary(t, "b.j0", w0, j, 0, &tasks)
				boundary(t, "b.j1", w1, j, 1, &tasks)
				g := ops.NewGroupBy("g", func(v any) any { return mod3(v.(ops.Pair).Left) }, aggregate.NewCount, nil)
				boundary(t, "b.g", j, g, 0, &tasks)
				return g, tasks, nil
			},
		},
		{
			Name: "three-way-union",
			Inputs: [][]temporal.Element{
				randStream(rng, 40, 10, 12), randStream(rng, 40, 10, 12), randStream(rng, 40, 10, 12),
			},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				var tasks []sched.Task
				u := ops.NewUnion("u", 3)
				for i, src := range in {
					boundary(t, "b.u"+string(rune('0'+i)), src, u, i, &tasks)
				}
				return u, tasks, nil
			},
		},
		{
			Name:   "difference-after-filter",
			Inputs: [][]temporal.Element{randStream(rng, 45, 6, 10), randStream(rng, 45, 6, 10)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				var tasks []sched.Task
				f := ops.NewFilter("f", func(v any) bool { return v.(int) != 5 })
				boundary(t, "b.f", in[0], f, 0, &tasks)
				d := ops.NewDifference("d", nil)
				boundary(t, "b.d0", f, d, 0, &tasks)
				boundary(t, "b.d1", in[1], d, 1, &tasks)
				return d, tasks, nil
			},
		},
		{
			Name:   "window-groupby-chain",
			Inputs: [][]temporal.Element{randStream(rng, 60, 9, 1)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				var tasks []sched.Task
				w := ops.NewTumblingWindow("w", 6)
				boundary(t, "b.w", in[0], w, 0, &tasks)
				g := ops.NewGroupBy("g", mod3, aggregate.NewSum, nil)
				boundary(t, "b.g", w, g, 0, &tasks)
				return g, tasks, nil
			},
		},
		{
			// A diamond: one source reaches both join inputs, through
			// windows of two sizes, so every element ties with itself.
			Name:   "self-join-diamond",
			Inputs: [][]temporal.Element{randStream(rng, 50, 6, 1)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				var tasks []sched.Task
				w6 := ops.NewTimeWindow("w6", 6)
				w4 := ops.NewTimeWindow("w4", 4)
				boundary(t, "b.w6", in[0], w6, 0, &tasks)
				boundary(t, "b.w4", in[0], w4, 0, &tasks)
				j := ops.NewEquiJoin("j", mod3, mod3, combine)
				boundary(t, "b.j0", w6, j, 0, &tasks)
				boundary(t, "b.j1", w4, j, 1, &tasks)
				return j, tasks, nil
			},
		},
		{
			// A diamond: one source reaches both union inputs, through a
			// filter and a map.
			Name:   "union-diamond",
			Inputs: [][]temporal.Element{randStream(rng, 50, 10, 8)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				var tasks []sched.Task
				f := ops.NewFilter("f", func(v any) bool { return v.(int)%2 == 0 })
				m := ops.NewMap("m", func(v any) any { return v.(int) * 10 })
				boundary(t, "b.f", in[0], f, 0, &tasks)
				boundary(t, "b.m", in[0], m, 0, &tasks)
				u := ops.NewUnion("u", 2)
				boundary(t, "b.u0", f, u, 0, &tasks)
				boundary(t, "b.u1", m, u, 1, &tasks)
				return u, tasks, nil
			},
		},
	}
}

// TestStressPlansSnapshotEquivalent is the tentpole: every plan shape,
// run repeatedly under randomized workers/strategies/batches/yields, must
// produce output snapshot-equivalent to the single-threaded reference.
// Run under -race this doubles as the data-race probe for the whole
// pubsub/sched/ops stack.
func TestStressPlansSnapshotEquivalent(t *testing.T) {
	runs := 10
	if testing.Short() {
		runs = 3
	}
	for i, plan := range plans(t) {
		plan := plan
		seed := int64(9100 + i)
		t.Run(plan.Name, func(t *testing.T) {
			t.Parallel()
			harness.Stress(t, plan, runs, seed)
		})
	}
}

// TestReferenceDeterministic guards the oracle itself: two serial runs
// of the same plan must be snapshot-equivalent (bitwise equality is too
// strict — operators that iterate Go maps, like hash joins, emit
// simultaneous elements in varying physical order).
func TestReferenceDeterministic(t *testing.T) {
	for _, plan := range plans(t) {
		a, err := harness.Reference(plan)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		b, err := harness.Reference(plan)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		if err := harness.Equivalent(a, b); err != nil {
			t.Fatalf("%s: reference runs disagree: %v", plan.Name, err)
		}
	}
}

// TestEquivalentRejectsCorruption exercises the checker's teeth: a
// dropped element, a perturbed interval and an out-of-order stream must
// all be flagged.
func TestEquivalentRejectsCorruption(t *testing.T) {
	ref := []temporal.Element{
		temporal.NewElement(1, 0, 5),
		temporal.NewElement(2, 2, 7),
		temporal.NewElement(3, 4, 9),
	}
	if err := harness.Equivalent(ref, ref); err != nil {
		t.Fatalf("identical streams flagged: %v", err)
	}
	if err := harness.Equivalent(ref, ref[:2]); err == nil {
		t.Fatal("dropped element not flagged")
	}
	perturbed := append([]temporal.Element(nil), ref...)
	perturbed[1] = temporal.NewElement(2, 2, 6)
	if err := harness.Equivalent(ref, perturbed); err == nil {
		t.Fatal("perturbed interval not flagged")
	}
	unordered := []temporal.Element{ref[2], ref[0], ref[1]}
	if err := harness.Equivalent(ref, unordered); err == nil {
		t.Fatal("stream-order violation not flagged")
	}
}

// TestRunTimesOutOnWedgedPlan verifies the watchdog: a plan whose done
// signal never reaches the sink must fail with a timeout, not hang.
func TestRunTimesOutOnWedgedPlan(t *testing.T) {
	plan := harness.Plan{
		Name:   "wedged",
		Inputs: [][]temporal.Element{{temporal.NewElement(1, 0, 1)}},
		Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
			// A buffer that is never drained by any task: upstream finishes
			// but done cannot propagate to the sink.
			buf := pubsub.NewBuffer("stuck")
			if err := in[0].Subscribe(buf, 0); err != nil {
				return nil, nil, err
			}
			return buf, nil, nil
		},
	}
	if _, err := harness.Run(plan, harness.Config{Workers: 1, Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("wedged plan did not time out")
	}
}
