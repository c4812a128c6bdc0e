package ops

// Snapshot-equivalence property suite (experiment E11): for every physical
// operator and randomized inputs, the snapshot of the operator's output at
// every boundary instant must equal the corresponding relational operation
// applied to the input snapshots — the CQL-conformance property the paper
// claims for its temporal algebra.

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/snapshot"
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
		out[i] = el(rng.Intn(vals), t, t+d)
	}
	return out
}

// checkEquivalence probes out vs. ref at every input boundary.
func checkEquivalence(t *testing.T, name string, out []temporal.Element,
	ref func(probe temporal.Time) []any, inputs ...[]temporal.Element) {
	t.Helper()
	for _, probe := range snapshot.Boundaries(inputs...) {
		got := snapshot.At(out, probe)
		want := ref(probe)
		if !snapshot.SameMultiset(got, want) {
			t.Fatalf("%s: snapshot mismatch at t=%d:\n got %v\nwant %v", name, probe, got, want)
		}
	}
	if !temporal.OrderedByStart(out) {
		t.Fatalf("%s: output violates stream order", name)
	}
}

func TestSnapshotEquivalenceFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 60, 10, 20)
		pred := func(v any) bool { return v.(int)%3 == 0 }
		out := runSingle(NewFilter("f", pred), in)
		checkEquivalence(t, "filter", out, func(p temporal.Time) []any {
			return snapshot.Filter(snapshot.At(in, p), pred)
		}, in)
	}
}

func TestSnapshotEquivalenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 60, 10, 20)
		fn := func(v any) any { return v.(int)*10 + 1 }
		out := runSingle(NewMap("m", fn), in)
		checkEquivalence(t, "map", out, func(p temporal.Time) []any {
			return snapshot.Map(snapshot.At(in, p), fn)
		}, in)
	}
}

func TestSnapshotEquivalenceUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := randStream(rng, 40, 10, 15)
		b := randStream(rng, 40, 10, 15)
		out := runMerged(NewUnion("u", 2), a, b)
		checkEquivalence(t, "union", out, func(p temporal.Time) []any {
			return snapshot.Union(snapshot.At(a, p), snapshot.At(b, p))
		}, a, b)
	}
}

func TestSnapshotEquivalenceUnionSequentialFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randStream(rng, 40, 10, 15)
	b := randStream(rng, 40, 10, 15)
	out := runSequential(NewUnion("u", 2), a, b)
	checkEquivalence(t, "union-seq", out, func(p temporal.Time) []any {
		return snapshot.Union(snapshot.At(a, p), snapshot.At(b, p))
	}, a, b)
}

func TestSnapshotEquivalenceJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := func(v any) any { return v.(int) % 4 }
	pred := func(l, r any) bool { return l.(int)%4 == r.(int)%4 }
	combine := func(l, r any) any { return Pair{Left: l, Right: r} }
	for trial := 0; trial < 15; trial++ {
		a := randStream(rng, 35, 12, 12)
		b := randStream(rng, 35, 12, 12)
		for mode, run := range map[string]func() []temporal.Element{
			"merged":     func() []temporal.Element { return runMerged(NewEquiJoin("j", key, key, combine), a, b) },
			"sequential": func() []temporal.Element { return runSequential(NewEquiJoin("j", key, key, combine), a, b) },
			"theta":      func() []temporal.Element { return runMerged(NewThetaJoin("j", pred, combine), a, b) },
		} {
			out := run()
			checkEquivalence(t, "join-"+mode, out, func(p temporal.Time) []any {
				return snapshot.Join(snapshot.At(a, p), snapshot.At(b, p), pred, combine)
			}, a, b)
		}
	}
}

func TestSnapshotEquivalenceMJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	key := func(v any) any { return v.(int) % 3 }
	for trial := 0; trial < 10; trial++ {
		a := randStream(rng, 20, 9, 10)
		b := randStream(rng, 20, 9, 10)
		c := randStream(rng, 20, 9, 10)
		out := runMerged(NewMJoin("m", 3, key), a, b, c)
		checkEquivalence(t, "mjoin", out, func(p temporal.Time) []any {
			return snapshot.MJoin([][]any{
				snapshot.At(a, p), snapshot.At(b, p), snapshot.At(c, p),
			}, key)
		}, a, b, c)
	}
}

func TestSnapshotEquivalenceDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 60, 6, 20)
		out := runSingle(NewDistinct("d"), in)
		checkEquivalence(t, "distinct", out, func(p temporal.Time) []any {
			return snapshot.Distinct(snapshot.At(in, p), nil)
		}, in)
	}
}

func TestSnapshotEquivalenceDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		a := randStream(rng, 40, 6, 15)
		b := randStream(rng, 40, 6, 15)
		for mode, run := range map[string]func() []temporal.Element{
			"merged":     func() []temporal.Element { return runMerged(NewDifference("d", nil), a, b) },
			"sequential": func() []temporal.Element { return runSequential(NewDifference("d", nil), a, b) },
		} {
			out := run()
			checkEquivalence(t, "difference-"+mode, out, func(p temporal.Time) []any {
				return snapshot.Diff(snapshot.At(a, p), snapshot.At(b, p), nil)
			}, a, b)
		}
	}
}

func TestSnapshotEquivalenceSplitIsIdentity(t *testing.T) {
	// Split changes physical representation but not logical content.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 50, 10, 30)
		out := runSingle(NewSplit("s", 7), in)
		checkEquivalence(t, "split", out, func(p temporal.Time) []any {
			return snapshot.At(in, p)
		}, in)
	}
}

func TestSnapshotEquivalenceCoalesceIsSetIdentity(t *testing.T) {
	// Coalesce preserves the *set* of values per snapshot (it may reduce
	// multiplicities of equal values to one — that is its purpose when
	// keyed by value).
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 50, 6, 20)
		out := runSingle(NewCoalesce("c", nil), in)
		checkEquivalence(t, "coalesce", out, func(p temporal.Time) []any {
			return snapshot.Distinct(snapshot.At(in, p), nil)
		}, in)
	}
}

func TestSnapshotEquivalenceGroupByCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key := func(v any) any { return v.(int) % 3 }
	for trial := 0; trial < 15; trial++ {
		in := randStream(rng, 50, 9, 15)
		out := runSingle(NewGroupBy("g", key, aggregate.NewCount, nil), in)
		checkEquivalence(t, "groupby-count", out, func(p temporal.Time) []any {
			groups := snapshot.GroupAggregate(snapshot.At(in, p), key, func() interface {
				Insert(any)
				Value() any
			} {
				return aggregate.NewCount()
			})
			var want []any
			for _, kv := range groups {
				want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
			}
			return want
		}, in)
	}
}

func TestSnapshotEquivalenceGroupBySumAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	key := func(v any) any { return v.(int) % 2 }
	for _, tc := range []struct {
		name    string
		factory aggregate.Factory
	}{
		{"sum", aggregate.NewSum},
		{"avg", aggregate.NewAvg},
		{"min", aggregate.NewMin}, // non-invertible recompute path
		{"max", aggregate.NewMax},
	} {
		for trial := 0; trial < 10; trial++ {
			in := randStream(rng, 40, 20, 12)
			out := runSingle(NewGroupBy("g", key, tc.factory, nil), in)
			checkEquivalence(t, "groupby-"+tc.name, out, func(p temporal.Time) []any {
				groups := snapshot.GroupAggregate(snapshot.At(in, p), key, func() interface {
					Insert(any)
					Value() any
				} {
					return tc.factory()
				})
				var want []any
				for _, kv := range groups {
					want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
				}
				return want
			}, in)
		}
	}
}

func TestSnapshotEquivalenceGlobalAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		in := randStream(rng, 50, 25, 15)
		out := runSingle(NewAggregate("agg", aggregate.NewCount), in)
		checkEquivalence(t, "aggregate", out, func(p temporal.Time) []any {
			snap := snapshot.At(in, p)
			if len(snap) == 0 {
				return nil
			}
			return []any{int64(len(snap))}
		}, in)
	}
}

func TestSnapshotEquivalencePipelineComposition(t *testing.T) {
	// window → filter → groupby composed; oracle composed likewise.
	rng := rand.New(rand.NewSource(14))
	key := func(v any) any { return v.(int) % 2 }
	pred := func(v any) bool { return v.(int) < 8 }
	for trial := 0; trial < 10; trial++ {
		raw := randStream(rng, 40, 10, 1) // chronon-ish inputs
		w := NewTimeWindow("w", 12)
		f := NewFilter("f", pred)
		g := NewGroupBy("g", key, aggregate.NewCount, nil)
		w.Subscribe(f, 0)
		f.Subscribe(g, 0)
		col := make([]temporal.Element, 0)
		sink := newCollectSink(&col)
		g.Subscribe(sink, 0)
		for _, e := range raw {
			w.ProcessBatch(temporal.Batch{e}, 0)
		}
		w.Done(0)

		// Oracle: windowed input = same values with extended intervals.
		windowed := make([]temporal.Element, len(raw))
		for i, e := range raw {
			windowed[i] = el(e.Value, e.Start, e.Start+12)
		}
		checkEquivalence(t, "pipeline", col, func(p temporal.Time) []any {
			snap := snapshot.Filter(snapshot.At(windowed, p), pred)
			groups := snapshot.GroupAggregate(snap, key, func() interface {
				Insert(any)
				Value() any
			} {
				return aggregate.NewCount()
			})
			var want []any
			for _, kv := range groups {
				want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
			}
			return want
		}, windowed)
	}
}

// collectSink gathers synchronously into a caller-owned slice (the
// pipeline test keeps everything single-goroutine).
type collectSink struct {
	out *[]temporal.Element
}

func newCollectSink(out *[]temporal.Element) *collectSink { return &collectSink{out: out} }

func (c *collectSink) Name() string { return "collect" }

func (c *collectSink) Process(e temporal.Element, _ int) { *c.out = append(*c.out, e) }

func (c *collectSink) Done(_ int) {}

func TestSnapshotEquivalenceWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	raw := randStream(rng, 50, 10, 1)
	// TimeWindow oracle.
	out := runSingle(NewTimeWindow("w", 9), raw)
	windowed := make([]temporal.Element, len(raw))
	for i, e := range raw {
		windowed[i] = el(e.Value, e.Start, e.Start+9)
	}
	checkEquivalence(t, "timewindow", out, func(p temporal.Time) []any {
		return snapshot.At(windowed, p)
	}, windowed)

	// TumblingWindow oracle.
	out = runSingle(NewTumblingWindow("t", 10), raw)
	tumbled := make([]temporal.Element, len(raw))
	for i, e := range raw {
		s := floorDiv(e.Start, 10) * 10
		tumbled[i] = el(e.Value, s, s+10)
	}
	checkEquivalence(t, "tumbling", out, func(p temporal.Time) []any {
		return snapshot.At(tumbled, p)
	}, tumbled)
}

func TestSnapshotEquivalenceIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 15; trial++ {
		a := randStream(rng, 40, 6, 15)
		b := randStream(rng, 40, 6, 15)
		for mode, run := range map[string]func() []temporal.Element{
			"merged":     func() []temporal.Element { return runMerged(NewIntersect("i", nil), a, b) },
			"sequential": func() []temporal.Element { return runSequential(NewIntersect("i", nil), a, b) },
		} {
			out := run()
			checkEquivalence(t, "intersect-"+mode, out, func(p temporal.Time) []any {
				return snapshot.Intersect(snapshot.At(a, p), snapshot.At(b, p), nil)
			}, a, b)
		}
	}
}

// ---------------------------------------------------------------------------
// Frame-size invariance suite: every operator is driven over the same
// deterministic merged schedule at several frame sizes — consecutive
// same-input items accumulated into frames, with checkpoint barriers
// injected at random schedule positions cutting the frames — and every
// run must agree exactly with the frame-1 baseline: identical output
// sequences and byte-identical StateSaver snapshots at every barrier.

// feedItem is one step of a deterministic multi-input schedule.
type feedItem struct {
	e     temporal.Element
	input int
}

// mergedFeed interleaves per-input-ordered streams in global Start order
// (ties: lower input first) — the same order runMerged uses.
func mergedFeed(inputs [][]temporal.Element) []feedItem {
	idx := make([]int, len(inputs))
	var out []feedItem
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
			return out
		}
		out = append(out, feedItem{e: inputs[best][idx[best]], input: best})
		idx[best]++
	}
}

// frameOp is what the invariance table drives: an engine operator.
type frameOp interface {
	pubsub.Pipe
	pubsub.BatchSink
}

// runOpFrames drives one freshly built operator over the schedule,
// accumulating consecutive same-input items into frames of at most frame
// elements, cut at every barrier position. barriers are sorted schedule
// positions; barrier k+1 is injected on every input when position
// barriers[k] is reached. Returns the exact output sequence and the
// per-barrier encoded snapshot (nil entries when the operator saves no state).
func runOpFrames(op frameOp, arity int, schedule []feedItem, barriers []int, frame int) ([]temporal.Element, [][]byte) {
	var out []temporal.Element
	op.Subscribe(newCollectSink(&out), 0)

	snaps := make([][]byte, len(barriers))
	type hooked interface {
		SetBarrierHooks(save, ack func(pubsub.Barrier))
	}
	if h, ok := op.(hooked); ok {
		if sv, ok := op.(ft.StateSaver); ok {
			h.SetBarrierHooks(func(b pubsub.Barrier) {
				state, err := ft.EncodeState(sv)
				if err != nil {
					panic("invariance snapshot: " + err.Error())
				}
				snaps[b.ID-1] = state
			}, nil)
		}
	}

	var pending temporal.Batch
	pendingInput := -1
	flush := func() {
		if len(pending) > 0 {
			op.ProcessBatch(pending, pendingInput)
			pending = nil
		}
	}
	inject := func(id uint64) {
		flush()
		cs, ok := op.(pubsub.ControlSink)
		if !ok {
			return
		}
		for i := 0; i < arity; i++ {
			cs.HandleControl(pubsub.Barrier{ID: id}, i)
		}
	}

	next := 0 // next barrier index
	for pos, item := range schedule {
		for next < len(barriers) && barriers[next] == pos {
			inject(uint64(next + 1))
			next++
		}
		if item.input != pendingInput || len(pending) >= frame {
			flush()
			pendingInput = item.input
		}
		pending = append(pending, item.e)
	}
	for next < len(barriers) {
		inject(uint64(next + 1))
		next++
	}
	flush()
	for i := 0; i < arity; i++ {
		op.Done(i)
	}
	return out, snaps
}

// TestFrameSizeInvariance is the operator-level invariance table: for
// every operator, random inputs, random barrier placement and every frame
// size, the run must replicate the frame-1 baseline exactly — outputs and
// snapshot bytes.
func TestFrameSizeInvariance(t *testing.T) {
	key3 := func(v any) any { return v.(int) % 3 }
	combine := func(l, r any) any { return Pair{Left: l, Right: r} }
	pred := func(l, r any) bool { return l.(int)%4 == r.(int)%4 }

	cases := []struct {
		name  string
		arity int
		mk    func() frameOp
	}{
		{"filter", 1, func() frameOp { return NewFilter("f", func(v any) bool { return v.(int)%3 != 0 }) }},
		{"map", 1, func() frameOp { return NewMap("m", func(v any) any { return v.(int) + 1 }) }},
		{"groupby-count", 1, func() frameOp { return NewGroupBy("g", key3, aggregate.NewCount, nil) }},
		{"groupby-sum", 1, func() frameOp { return NewGroupBy("g", key3, aggregate.NewSum, nil) }},
		{"equi-join", 2, func() frameOp { return NewEquiJoin("j", key3, key3, combine) }},
		{"theta-join", 2, func() frameOp { return NewThetaJoin("j", pred, combine) }},
		{"mjoin", 3, func() frameOp { return NewMJoin("m", 3, key3) }},
		{"difference", 2, func() frameOp { return NewDifference("d", nil) }},
		{"intersect", 2, func() frameOp { return NewIntersect("i", nil) }},
		{"union", 3, func() frameOp { return NewUnion("u", 3) }},
		{"coalesce", 1, func() frameOp { return NewCoalesce("c", key3) }},
		{"distinct", 1, func() frameOp { return NewDistinct("d") }},
		{"split", 1, func() frameOp { return NewSplit("s", 4) }},
		{"sample", 1, func() frameOp { return NewSample("s", 5) }},
		{"sequencer", 1, func() frameOp { return NewSequencer("s", 3) }},
		{"shedder", 1, func() frameOp {
			s := NewShedder("s", 42)
			s.SetDropProbability(0.3)
			return s
		}},
		{"istream", 1, func() frameOp { return NewIStream("i") }},
		{"dstream", 1, func() frameOp { return NewDStream("d") }},
		{"time-window", 1, func() frameOp { return NewTimeWindow("w", 9) }},
		{"unbounded-window", 1, func() frameOp { return NewUnboundedWindow("w") }},
		{"now-window", 1, func() frameOp { return NewNowWindow("w") }},
		{"tumbling-window", 1, func() frameOp { return NewTumblingWindow("w", 10) }},
		{"count-window", 1, func() frameOp { return NewCountWindow("w", 5) }},
		{"partitioned-window", 1, func() frameOp { return NewPartitionedWindow("w", key3, 4) }},
	}

	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(6600 + ci)))
			for trial := 0; trial < 6; trial++ {
				inputs := make([][]temporal.Element, tc.arity)
				for i := range inputs {
					inputs[i] = randStream(rng, 30, 9, 12)
				}
				schedule := mergedFeed(inputs)
				nb := 1 + rng.Intn(3)
				barriers := make([]int, nb)
				for i := range barriers {
					barriers[i] = rng.Intn(len(schedule) + 1)
				}
				sort.Ints(barriers)

				baseOut, baseSnaps := runOpFrames(tc.mk(), tc.arity, schedule, barriers, 1)
				for _, frame := range []int{7, 64, len(schedule)} {
					out, snaps := runOpFrames(tc.mk(), tc.arity, schedule, barriers, frame)
					if len(out) != len(baseOut) {
						t.Fatalf("trial %d frame %d: output length %d, frame 1 gave %d",
							trial, frame, len(out), len(baseOut))
					}
					for i := range baseOut {
						if baseOut[i].Interval != out[i].Interval ||
							!reflect.DeepEqual(baseOut[i].Value, out[i].Value) {
							t.Fatalf("trial %d frame %d: output[%d] = %v, frame 1 gave %v",
								trial, frame, i, out[i], baseOut[i])
						}
					}
					for r := range baseSnaps {
						if !bytes.Equal(baseSnaps[r], snaps[r]) {
							t.Fatalf("trial %d frame %d: snapshot %d differs (%d vs %d bytes)",
								trial, frame, r+1, len(snaps[r]), len(baseSnaps[r]))
						}
					}
				}
			}
		})
	}
}
