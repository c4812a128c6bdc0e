package archive

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/harness"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/snapshot"
	"pipes/internal/temporal"
)

// TestReplayFromStart replays the whole archive (offset 0) into a fresh
// graph: the replayed stream must be the archived stream, in Start order.
func TestReplayFromStart(t *testing.T) {
	a := New("arch", 8)
	want := []temporal.Element{el(1, 0, 5), el(2, 3, 9), el(3, 8, 12), el(4, 20, 25)}
	fill(a, want...)

	col := pubsub.NewCollector("col", 1)
	rep := a.ReplayFrom("replay", 0)
	rep.Subscribe(col, 0)
	pubsub.Drive(rep)
	col.Wait()

	got := col.Elements()
	if len(got) != len(want) {
		t.Fatalf("replayed %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Value != want[i].Value || got[i].Interval != want[i].Interval {
			t.Fatalf("element %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestReplayFromMidStreamOffset is the recovery scenario: a checkpoint
// recorded that the crashed run had consumed the first k elements, so
// replay must emit exactly the suffix from k on, preserving Start order.
func TestReplayFromMidStreamOffset(t *testing.T) {
	a := New("arch", 4)
	all := []temporal.Element{
		el("a", 0, 10), el("b", 1, 4), el("c", 5, 30), el("d", 7, 8), el("e", 11, 12),
	}
	fill(a, all...)

	for offset := 0; offset <= len(all); offset++ {
		col := pubsub.NewCollector("col", 1)
		rep := a.ReplayFrom("replay", offset)
		rep.Subscribe(col, 0)
		pubsub.Drive(rep)
		col.Wait()

		got := col.Elements()
		want := all[offset:]
		if len(got) != len(want) {
			t.Fatalf("offset %d: replayed %d elements, want %d", offset, len(got), len(want))
		}
		for i := range got {
			if got[i].Value != want[i].Value || got[i].Interval != want[i].Interval {
				t.Fatalf("offset %d element %d: got %+v want %+v", offset, i, got[i], want[i])
			}
		}
	}
}

// TestReplayFromOffsetBeyondEnd degenerates to an empty stream that
// still signals Done (a checkpoint taken after the source finished).
func TestReplayFromOffsetBeyondEnd(t *testing.T) {
	a := New("arch", 8)
	fill(a, el(1, 0, 5), el(2, 3, 9))

	col := pubsub.NewCollector("col", 1)
	rep := a.ReplayFrom("replay", 10)
	rep.Subscribe(col, 0)
	pubsub.Drive(rep)
	col.Wait() // Done must arrive even with nothing to replay
	if n := len(col.Elements()); n != 0 {
		t.Fatalf("replayed %d elements past the end of the archive", n)
	}
}

// TestReplayFromNearMinTime pins the Range-underflow regression: buckets
// near temporal.MinTime must stay visible to a full-interval replay (the
// bucket scan's lower bound used to wrap when maxDur was subtracted).
func TestReplayFromNearMinTime(t *testing.T) {
	a := New("arch", 8)
	fill(a, el("lo", temporal.MinTime, temporal.MinTime+4), el("hi", 100, 120))

	col := pubsub.NewCollector("col", 1)
	rep := a.ReplayFrom("replay", 0)
	rep.Subscribe(col, 0)
	pubsub.Drive(rep)
	col.Wait()
	if !snapshot.SameMultiset(col.Values(), []any{"lo", "hi"}) {
		t.Fatalf("replayed %v, want both elements", col.Values())
	}
}

// TestReplayFromIntoFreshOperatorGraph drives a mid-stream replay through
// a real operator chain (window → group-by) and checks it against the
// same chain fed the suffix directly — replay must be indistinguishable
// from a live source that starts at the offset.
func TestReplayFromIntoFreshOperatorGraph(t *testing.T) {
	all := make([]temporal.Element, 40)
	for i := range all {
		all[i] = el(i%3, temporal.Time(i), temporal.Time(i+1))
	}
	a := New("arch", 16)
	fill(a, all...)
	const offset = 17

	run := func(src pubsub.Source) []temporal.Element {
		w := ops.NewTimeWindow("w", 10)
		gb := ops.NewGroupBy("gb", func(v any) any { return v }, aggregate.NewCount, nil)
		col := pubsub.NewCollector("col", 1)
		for _, s := range []error{src.Subscribe(w, 0), w.Subscribe(gb, 0), gb.Subscribe(col, 0)} {
			if s != nil {
				t.Fatal(s)
			}
		}
		pubsub.Drive(src.(pubsub.Emitter))
		col.Wait()
		return col.Elements()
	}

	got := run(a.ReplayFrom("replay", offset))
	want := run(pubsub.NewSliceSource("direct", all[offset:]))
	if err := harness.Equivalent(want, got); err != nil {
		t.Fatalf("replayed graph output differs from direct run: %v", err)
	}
}

// ReplayFrom copies the archive once, unboxed, and skips offset elements
// by slicing: at any offset it must emit exactly what the boxed Range
// cursor over the whole time line yields after its first offset
// elements, in the same order and under the same overlap filter.
// A replay from an offset copies only the elements it publishes: the
// skipped prefix is neither copied nor kept reachable. Resuming k
// elements before the end allocates k elements' 48 bytes, rounded up by
// the allocator, plus the sorted bucket keys and the emitter.
func TestReplayFromCopiesOnlyTheTail(t *testing.T) {
	const n, slack = 10000, 12 << 10
	a := New("arch", 100)
	for i := 0; i < n; i++ {
		fill(a, el(i, temporal.Time(i), temporal.Time(i+50)))
	}
	for _, k := range []int{0, 1, 99, 100, 101, 2500, n} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := a.ReplayFrom("replay", n-k)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(k*48+slack); got > limit {
			t.Errorf("ReplayFrom(%d) of %d elements allocates %d bytes, want at most %d", n-k, n, got, limit)
		}
		runtime.KeepAlive(rep)
	}
}

func TestReplayFromMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := New("arch", temporal.Time(1+rng.Intn(16)))
		n := rng.Intn(60)
		start := temporal.Time(rng.Intn(50) - 25)
		for i := 0; i < n; i++ {
			start += temporal.Time(rng.Intn(4))
			end := start + 1 + temporal.Time(rng.Intn(40))
			if rng.Intn(10) == 0 {
				end = temporal.MaxTime
			}
			fill(a, el(i, start, end))
		}
		cur := a.Range(temporal.NewInterval(temporal.MinTime, temporal.MaxTime))
		var ranged []temporal.Element
		for v, ok := cur.Next(); ok; v, ok = cur.Next() {
			ranged = append(ranged, v.(temporal.Element))
		}
		for _, offset := range []int{0, rng.Intn(n + 1), rng.Intn(n + 1), n, n + 1 + rng.Intn(3)} {
			col := pubsub.NewCollector("col", 1)
			rep := a.ReplayFrom("replay", offset)
			rep.Subscribe(col, 0)
			pubsub.Drive(rep)
			col.Wait()
			want := ranged[min(offset, len(ranged)):]
			if got := col.Elements(); !slices.Equal(got, want) {
				t.Fatalf("trial %d, offset %d of %d: ReplayFrom emitted %v, Range yields %v", trial, offset, n, got, want)
			}
		}
		// The copy is sized from the selected buckets up front: a full
		// replay is the bucket keys, the copy and the emitter.
		if allocs := testing.AllocsPerRun(20, func() { a.ReplayFrom("replay", 0) }); allocs > 3 {
			t.Fatalf("trial %d: a full replay of %d elements costs %.0f allocations, want <= 3", trial, n, allocs)
		}
	}
}
