package harness_test

// FuzzBatchSplit fuzzes frame splitting: arbitrary input bytes become an
// ordered element stream, the fuzzer picks the frame size and the
// punctuation-offset seed, and a filter → window → group-aggregate chain
// is executed at that frame size and at frame 1. Any divergence — output
// sequence, snapshot bytes, sink cuts — is a bug in the punctuation-cut
// rule or an operator's frame loop. Run longer with
// `go test -fuzz=FuzzBatchSplit ./internal/harness`.
//
// The byte corpus is seeded from the CQL plan-execute fuzz corpus
// (internal/cql/testdata/fuzz/FuzzPlanExecute): the query texts are
// reinterpreted as stream bytes, which keeps the two fuzzers' interesting
// inputs flowing into each other.

import (
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/harness"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
)

// bytesToStream decodes fuzz bytes into an ordered stream: each byte
// contributes one element whose value, start delta and duration are bit
// slices of it.
func bytesToStream(data []byte) []temporal.Element {
	if len(data) > 200 {
		data = data[:200]
	}
	out := make([]temporal.Element, len(data))
	t := temporal.Time(0)
	for i, b := range data {
		t += temporal.Time(b >> 6)                      // start delta 0..3
		d := temporal.Time(b>>3&7) + 1                  // duration 1..8
		out[i] = temporal.NewElement(int(b&15), t, t+d) // value 0..15
	}
	return out
}

// chainPlan is the filter → window → group-aggregate chain under fuzz,
// with scheduler boundaries so frames cross hand-off buffers.
func chainPlan(in []temporal.Element) harness.Plan {
	return harness.Plan{
		Name:   "fuzz-chain",
		Inputs: [][]temporal.Element{in},
		Build: func(src []pubsub.Source) (pubsub.Source, []sched.Task, error) {
			var tasks []sched.Task
			f := ops.NewFilter("f", func(v any) bool { return v.(int) != 13 })
			bt, err := sched.Boundary("b.f", src[0], f, 0)
			if err != nil {
				return nil, nil, err
			}
			tasks = append(tasks, bt)
			w := ops.NewTimeWindow("w", 9)
			f.Subscribe(w, 0)
			g := ops.NewGroupBy("g", func(v any) any { return v.(int) % 3 }, aggregate.NewCount, nil)
			bt, err = sched.Boundary("b.g", w, g, 0)
			if err != nil {
				return nil, nil, err
			}
			tasks = append(tasks, bt)
			return g, tasks, nil
		},
	}
}

func FuzzBatchSplit(f *testing.F) {
	for _, seed := range []string{
		"SELECT s.k, COUNT(*) AS n FROM s [RANGE 30] GROUP BY s.k",
		"ISTREAM(SELECT a FROM s [RANGE 20] WHERE a > 1 AND b < 4)",
		"SELECT * FROM s [NOW], r [UNBOUNDED] WHERE s.k = r.k",
		"SELECT * FROM s [RANGE 1], r [RANGE 1] WHERE s.a = r.a AND s.b = r.b",
		"SELECT AVG(x), MIN(a), MAX(b) FROM s [ROWS 4]",
		"SELECT -a FROM s WHERE NOT (k = 1)",
		"SELECT MAX(celsius) FROM r [PARTITION BY k ROWS 2]",
		"SELECT * FROM s",
		"RSTREAM(SELECT x FROM s [RANGE 10], SLIDE 5)",
		"SELECT COUNT(*) FROM sensor [RANGE 5000] WHERE celsius > 22",
	} {
		f.Add([]byte(seed), uint8(7), int64(1))
		f.Add([]byte(seed), uint8(64), int64(9))
	}
	f.Fuzz(func(t *testing.T, data []byte, frame uint8, seed int64) {
		in := bytesToStream(data)
		if len(in) == 0 {
			return
		}
		plan := chainPlan(in)
		cfg := harness.DiffConfig{
			FrameSize: 1,
			Rounds:    1 + int(uint64(seed)%3),
			Seed:      seed,
		}
		base, err := harness.RunFrames(plan, cfg)
		if err != nil {
			t.Fatalf("frame=1: %v", err)
		}
		// 0 means whole-segment: each segment becomes one frame.
		cfg.FrameSize = int(frame % 80)
		got, err := harness.RunFrames(plan, cfg)
		if err != nil {
			t.Fatalf("frame=%d: %v", cfg.FrameSize, err)
		}
		if err := harness.DiffRuns(base, got); err != nil {
			t.Fatalf("frame=%d seed=%d: %v", cfg.FrameSize, seed, err)
		}
	})
}
