package ft_test

import (
	"sync/atomic"
	"testing"
	"time"

	"pipes/internal/aggregate"
	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

func el(v any, start, end temporal.Time) temporal.Element {
	return temporal.Element{Value: v, Interval: temporal.Interval{Start: start, End: end}, Trace: nil}
}

// CheckpointSource injects a requested barrier at once, between two
// frames, with the element count before it as the offset; a barrier
// requested after done passes through at the final offset.
func TestCheckpointSourceInjectsBarrierAtOffset(t *testing.T) {
	inner := pubsub.NewSliceSource("src", []temporal.Element{
		el(1, 1, 2), el(2, 2, 3), el(3, 3, 4),
	})
	cs := ft.NewCheckpointSource(inner)
	sink := ft.NewCheckpointSink("sink")
	if err := cs.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	request := func(id uint64, want int) {
		t.Helper()
		cs.RequestBarrier(pubsub.Barrier{ID: id})
		if cut, ok := sink.Cut(id); !ok || cut != want || cs.Offset() != want {
			t.Fatalf("barrier %d: cut (%d, %v), offset %d, want both %d on return", id, cut, ok, cs.Offset(), want)
		}
	}
	request(1, 0)
	cs.EmitNext()
	cs.EmitNext()
	request(2, 2)
	for cs.EmitNext() {
	}
	if !sink.IsDone() || !cs.Ended() {
		t.Fatal("done did not propagate")
	}
	request(3, 3)
	if got := len(sink.Elements()); got != 3 {
		t.Fatalf("sink got %d elements, want 3", got)
	}
}

// Manager end-to-end over a two-source join graph driven to completion:
// rounds triggered mid-stream must seal with consistent offsets, states
// and sink cuts.
func TestManagerChecksAndSealsRounds(t *testing.T) {
	store := ft.NewMemStore()
	mgr := ft.NewManager(store)

	left := ft.NewCheckpointSource(pubsub.NewSliceSource("left", []temporal.Element{
		el(1, 1, 10), el(2, 2, 10), el(3, 3, 10),
	}))
	right := ft.NewCheckpointSource(pubsub.NewSliceSource("right", []temporal.Element{
		el(1, 1, 10), el(2, 2, 10), el(3, 3, 10),
	}))
	join := ops.NewEquiJoin("join", func(v any) any { return v }, func(v any) any { return v }, nil)
	sink := ft.NewCheckpointSink("sink")
	if err := left.Subscribe(join, 0); err != nil {
		t.Fatal(err)
	}
	if err := right.Subscribe(join, 1); err != nil {
		t.Fatal(err)
	}
	if err := join.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}

	mgr.RegisterSource(left)
	mgr.RegisterSource(right)
	mgr.RegisterOperator(join, join)
	mgr.RegisterSink(sink)
	mgr.RegisterMetrics(telemetry.NewRegistry())
	mgr.Start(0)
	defer mgr.Stop()

	// Interleave: one element per source, then a checkpoint, repeat.
	id1, err := mgr.Trigger()
	if err != nil {
		t.Fatal(err)
	}
	left.EmitNext()
	right.EmitNext()
	waitSealed(t, mgr, id1)

	left.EmitNext()
	id2, err := mgr.Trigger()
	if err != nil {
		t.Fatal(err)
	}
	right.EmitNext()
	left.EmitNext()
	waitSealed(t, mgr, id2)

	for left.EmitNext() {
	}
	for right.EmitNext() {
	}

	cp, err := store.LatestComplete()
	if err != nil || cp == nil {
		t.Fatalf("latest: %v, %v", cp, err)
	}
	if cp.ID != id2 {
		t.Fatalf("latest ID %d, want %d", cp.ID, id2)
	}
	if cp.Offsets["left"] != 2 || cp.Offsets["right"] != 1 {
		t.Fatalf("offsets: %v, want left=2 right=1", cp.Offsets)
	}
	if _, ok := cp.States["join"]; !ok {
		t.Fatalf("join state missing: %v", cp.States)
	}
	if _, ok := sink.Cut(id2); !ok {
		t.Fatal("sink cut for round 2 missing")
	}
	if got := mgr.Completed(); got != 2 {
		t.Fatalf("completed rounds: %d, want 2", got)
	}
}

// waitSealed blocks until the manager's background writer sealed round id.
func waitSealed(t *testing.T, mgr *ft.Manager, id uint64) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if mgr.LastCheckpointID() >= id {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("round %d never sealed", id)
}

// Round-trip every stateful operator through SnapshotState/LoadState and
// verify the restored operator produces identical output for identical
// further input.
func TestOperatorStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		make  func() statefulOp
		feed  []feedStep
		after []feedStep
	}{
		{
			name: "join",
			make: func() statefulOp {
				return ops.NewEquiJoin("op", func(v any) any { return v }, func(v any) any { return v }, nil)
			},
			feed:  []feedStep{{el(1, 1, 10), 0}, {el(2, 2, 10), 1}, {el(1, 3, 8), 1}},
			after: []feedStep{{el(2, 4, 9), 0}, {el(1, 5, 6), 0}},
		},
		{
			name: "groupby",
			make: func() statefulOp {
				return ops.NewGroupBy("op", func(v any) any { return v.(int) % 2 }, aggregate.NewCount, nil)
			},
			feed:  []feedStep{{el(1, 1, 5), 0}, {el(2, 2, 6), 0}, {el(3, 3, 7), 0}},
			after: []feedStep{{el(4, 4, 9), 0}, {el(5, 8, 12), 0}},
		},
		{
			name:  "union",
			make:  func() statefulOp { return ops.NewUnion("op", 2) },
			feed:  []feedStep{{el(1, 1, 5), 0}, {el(2, 3, 6), 1}},
			after: []feedStep{{el(3, 4, 8), 0}, {el(4, 5, 9), 1}},
		},
		{
			name:  "difference",
			make:  func() statefulOp { return ops.NewDifference("op", nil) },
			feed:  []feedStep{{el(1, 1, 9), 0}, {el(1, 2, 6), 1}, {el(2, 3, 7), 0}},
			after: []feedStep{{el(1, 4, 8), 0}, {el(2, 5, 6), 1}},
		},
		{
			name:  "intersect",
			make:  func() statefulOp { return ops.NewIntersect("op", nil) },
			feed:  []feedStep{{el(1, 1, 9), 0}, {el(1, 2, 6), 1}, {el(2, 3, 7), 0}},
			after: []feedStep{{el(2, 4, 8), 1}, {el(1, 5, 6), 0}},
		},
		{
			name:  "countwindow",
			make:  func() statefulOp { return ops.NewCountWindow("op", 2) },
			feed:  []feedStep{{el(1, 1, 1), 0}, {el(2, 2, 2), 0}, {el(3, 3, 3), 0}},
			after: []feedStep{{el(4, 4, 4), 0}, {el(5, 5, 5), 0}},
		},
		{
			name: "partitionedwindow",
			make: func() statefulOp {
				return ops.NewPartitionedWindow("op", func(v any) any { return v.(int) % 2 }, 2)
			},
			feed:  []feedStep{{el(1, 1, 1), 0}, {el(2, 2, 2), 0}, {el(3, 3, 3), 0}},
			after: []feedStep{{el(4, 4, 4), 0}, {el(5, 5, 5), 0}, {el(6, 6, 6), 0}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted run: feed + after.
			ref := tc.make()
			refCol := pubsub.NewCollector("ref", 1)
			if err := ref.Subscribe(refCol, 0); err != nil {
				t.Fatal(err)
			}
			for _, s := range append(append([]feedStep{}, tc.feed...), tc.after...) {
				ref.ProcessBatch(temporal.Batch{s.e}, s.input)
			}
			doneAll(ref)

			// Checkpointed run: feed, save, restore into a fresh operator,
			// continue with after.
			orig := tc.make()
			// Swallow pre-checkpoint output (it would have been delivered
			// before the crash).
			origCol := pubsub.NewCollector("orig", 1)
			if err := orig.Subscribe(origCol, 0); err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.feed {
				orig.ProcessBatch(temporal.Batch{s.e}, s.input)
			}
			state, err := ft.EncodeState(orig.(ft.StateSaver))
			if err != nil {
				t.Fatal(err)
			}

			restored := tc.make()
			if err := restored.(ft.StateLoader).LoadState(state); err != nil {
				t.Fatal(err)
			}
			restCol := pubsub.NewCollector("rest", 1)
			if err := restored.Subscribe(restCol, 0); err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.after {
				restored.ProcessBatch(temporal.Batch{s.e}, s.input)
			}
			doneAll(restored)

			// ref output == orig pre-checkpoint output + restored output.
			merged := append(origCol.Elements(), restCol.Elements()...)
			refOut := refCol.Elements()
			if len(merged) != len(refOut) {
				t.Fatalf("merged %d elements, reference %d\nmerged:   %v\nreference: %v",
					len(merged), len(refOut), merged, refOut)
			}
			for i := range refOut {
				if merged[i] != refOut[i] {
					t.Errorf("element %d: merged %v, reference %v", i, merged[i], refOut[i])
				}
			}
		})
	}
}

type feedStep struct {
	e     temporal.Element
	input int
}

// statefulOp is what the round-trip table drives: an engine operator.
type statefulOp interface {
	pubsub.Pipe
	pubsub.BatchSink
}

func doneAll(p pubsub.Pipe) {
	type inputer interface{ Inputs() int }
	n := 1
	if ip, ok := p.(inputer); ok {
		n = ip.Inputs()
	}
	for i := 0; i < n; i++ {
		p.Done(i)
	}
}

// A round that completes on the tick goroutine concurrently with
// shutdown must not be lost: its hand-off to the writer can land after
// the writer's own shutdown drain already looked, so Stop performs a
// final drain once all manager goroutines have exited. The sourceless
// graph is the path where Trigger completes a round inline on the
// caller — here the ticker — making the hand-off race Stop directly.
// The invariant under test: every round that reached the "complete"
// stage before Stop returned is counted by Completed(). Regression for
// a flaky round loss observed under the facade's 1ms cadence.
func TestStopSealsRoundCompletedDuringShutdown(t *testing.T) {
	for i := 0; i < 200; i++ {
		mgr := ft.NewManager(ft.NewMemStore())
		var completed atomic.Int64
		mgr.OnEvent(func(ev ft.Event) {
			if ev.Stage == "complete" {
				completed.Add(1)
			}
		})
		mgr.Start(10 * time.Microsecond)
		// Let the ticker complete a few rounds, then race it with Stop.
		time.Sleep(time.Duration(1+i%7) * 40 * time.Microsecond)
		mgr.Stop()
		if got := mgr.Completed(); got != completed.Load() {
			t.Fatalf("iteration %d: %d rounds reached complete but %d sealed after Stop",
				i, completed.Load(), got)
		}
	}
}

// Rounds must not start after every source has ended: end-of-stream
// flushes operator state, so a post-done barrier would seal a
// non-resumable snapshot (recovering it replays input into post-flush
// windows). Regression for recovery-order violations seen when the
// facade's periodic trigger fired after workload completion.
func TestTriggerRefusedAfterStreamEnd(t *testing.T) {
	mgr := ft.NewManager(ft.NewMemStore())
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", []temporal.Element{
		el(1, 1, 10),
	}))
	sink := ft.NewCheckpointSink("sink")
	if err := src.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	mgr.RegisterSource(src)
	mgr.RegisterSink(sink)
	mgr.Start(0)
	defer mgr.Stop()
	if src.Ended() {
		t.Fatal("source reports ended before emitting")
	}
	for src.EmitNext() {
	}
	if !src.Ended() {
		t.Fatal("source does not report ended after exhaustion")
	}
	if _, err := mgr.Trigger(); err != ft.ErrStreamEnded {
		t.Fatalf("Trigger after stream end: err = %v, want ErrStreamEnded", err)
	}
	if got := mgr.Completed(); got != 0 {
		t.Fatalf("completed rounds: %d, want 0", got)
	}
}
