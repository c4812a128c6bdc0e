package harness_test

import (
	"math/rand"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/harness"
	"pipes/internal/metadata"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
)

// TestMetricsFrameSizeInvariance extends the invariance oracle to the
// secondary-metadata framework: a plan whose operators are monitored must
// tally identical input/output counts, selectivity and application-time
// stamps — and the same number of service-time samples — at every frame
// size as at frame 1. This pins the per-element accounting of the
// instrumentation block (one that counted frames would undercount by the
// frame size).
func TestMetricsFrameSizeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5317))
	mod3 := func(v any) any { return v.(int) % 3 }
	combine := func(l, r any) any { return ops.Pair{Left: l, Right: r} }

	// Build closures reset and refill mons, so after each run the slice
	// holds exactly that run's monitors in wiring order.
	var mons []*metadata.Monitored
	wrap := func(p pubsub.Pipe) pubsub.Pipe {
		mons = append(mons, metadata.Monitor(p))
		return p
	}

	plans := []harness.Plan{
		{
			Name:   "monitored-filter-window-groupby",
			Inputs: [][]temporal.Element{randStream(rng, 80, 9, 1)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				mons = mons[:0]
				var tasks []sched.Task
				f := wrap(ops.NewFilter("f", func(v any) bool { return v.(int) < 7 }))
				boundary(t, "b.f", in[0], f, 0, &tasks)
				w := wrap(ops.NewTumblingWindow("w", 6))
				if err := f.Subscribe(w, 0); err != nil {
					return nil, nil, err
				}
				g := wrap(ops.NewGroupBy("g", mod3, aggregate.NewSum, nil))
				boundary(t, "b.g", w, g, 0, &tasks)
				return g, tasks, nil
			},
		},
		{
			Name:   "monitored-join",
			Inputs: [][]temporal.Element{randStream(rng, 50, 12, 8), randStream(rng, 50, 12, 8)},
			Build: func(in []pubsub.Source) (pubsub.Source, []sched.Task, error) {
				mons = mons[:0]
				var tasks []sched.Task
				j := wrap(ops.NewEquiJoin("j", mod3, mod3, combine))
				boundary(t, "b.j0", in[0], j, 0, &tasks)
				boundary(t, "b.j1", in[1], j, 1, &tasks)
				return j, tasks, nil
			},
		},
	}

	for i, plan := range plans {
		plan, i := plan, i
		t.Run(plan.Name, func(t *testing.T) {
			cfg := harness.DiffConfig{FrameSize: 1, Rounds: 2, Seed: int64(7600 + i)}
			base, err := harness.RunFrames(plan, cfg)
			if err != nil {
				t.Fatalf("frame=1: %v", err)
			}
			baseSnap := harness.SnapshotMonitors(mons)
			for _, frame := range frameSizes {
				cfg.FrameSize = frame
				got, err := harness.RunFrames(plan, cfg)
				if err != nil {
					t.Fatalf("frame=%s: %v", frameName(frame), err)
				}
				if err := harness.DiffRuns(base, got); err != nil {
					t.Errorf("frame=%s output: %v", frameName(frame), err)
				}
				if err := harness.MetricsDiff(baseSnap, harness.SnapshotMonitors(mons)); err != nil {
					t.Errorf("frame=%s metrics: %v", frameName(frame), err)
				}
			}
		})
	}
}

// TestMetricsDiffRejectsDivergence exercises the checker's teeth: a
// count, a selectivity and a sample-count divergence must all be flagged.
func TestMetricsDiffRejectsDivergence(t *testing.T) {
	base := []harness.MonitorSnapshot{{Op: "f", InputCount: 32, OutputCount: 16, Selectivity: 0.5, SvcSamples: 2}}
	if err := harness.MetricsDiff(base, base); err != nil {
		t.Fatalf("identical snapshots flagged: %v", err)
	}
	undercounted := []harness.MonitorSnapshot{{Op: "f", InputCount: 2, OutputCount: 16, Selectivity: 8, SvcSamples: 2}}
	if err := harness.MetricsDiff(base, undercounted); err == nil {
		t.Fatal("frame-undercounted run not flagged")
	}
	fewerSamples := []harness.MonitorSnapshot{{Op: "f", InputCount: 32, OutputCount: 16, Selectivity: 0.5, SvcSamples: 1}}
	if err := harness.MetricsDiff(base, fewerSamples); err == nil {
		t.Fatal("missing service-time samples not flagged")
	}
	if err := harness.MetricsDiff(base, base[:0]); err == nil {
		t.Fatal("monitor-count mismatch not flagged")
	}
}
