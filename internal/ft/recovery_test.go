package ft_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pipes/internal/aggregate"
	"pipes/internal/archive"
	"pipes/internal/ft"
	"pipes/internal/harness"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
)

// builtGraph is one freshly wired operator graph of a shape: the output
// node, the checkpoint participants by name, and extra scheduler tasks
// (buffer boundaries).
type builtGraph struct {
	out      pubsub.Source
	stateful map[string]pubsub.Pipe
	extra    []sched.Task
}

// shape builds randomized-but-reproducible graphs: the same shape called
// twice wires two independent graphs with identical operator names —
// the property recovery relies on.
type shape struct {
	name   string
	inputs int
	build  func(srcs []pubsub.Source) builtGraph
}

func shapes(rng *rand.Rand) []shape {
	wsize := temporal.Time(5 + rng.Intn(20))
	cwn := 2 + rng.Intn(5)
	ident := func(v any) any { return v }
	mod := func(v any) any { return v.(int) % 3 }
	pairKey := func(v any) any { return v.(ops.Pair).Left.(int) % 3 }
	return []shape{
		{
			name:   "window-join-groupby",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				w0 := ops.NewTimeWindow("w0", wsize)
				w1 := ops.NewTimeWindow("w1", wsize)
				j := ops.NewEquiJoin("join", ident, ident, nil)
				gb := ops.NewGroupBy("gb", pairKey, aggregate.NewCount, nil)
				mustSub(srcs[0], w0, 0)
				mustSub(srcs[1], w1, 0)
				mustSub(w0, j, 0)
				mustSub(w1, j, 1)
				mustSub(j, gb, 0)
				return builtGraph{out: gb, stateful: map[string]pubsub.Pipe{"join": j, "gb": gb}}
			},
		},
		{
			// A CountWindow's output depends on the order of its input:
			// here each one sees a single source, whose order replay
			// preserves; union-countwindow-groupby puts one below the union.
			name:   "countwindow-union-groupby",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				cw0 := ops.NewCountWindow("cw0", cwn)
				cw1 := ops.NewCountWindow("cw1", cwn)
				u := ops.NewUnion("union", 2)
				gb := ops.NewGroupBy("gb", mod, aggregate.NewCount, nil)
				mustSub(srcs[0], cw0, 0)
				mustSub(srcs[1], cw1, 0)
				mustSub(cw0, u, 0)
				mustSub(cw1, u, 1)
				mustSub(u, gb, 0)
				return builtGraph{out: gb, stateful: map[string]pubsub.Pipe{"cw0": cw0, "cw1": cw1, "union": u, "gb": gb}}
			},
		},
		{
			name:   "window-intersect-buffer",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				w0 := ops.NewTimeWindow("w0", wsize)
				w1 := ops.NewTimeWindow("w1", wsize)
				x := ops.NewIntersect("intersect", nil)
				buf := pubsub.NewBuffer("buf")
				mustSub(srcs[0], w0, 0)
				mustSub(srcs[1], w1, 0)
				mustSub(w0, x, 0)
				mustSub(w1, x, 1)
				mustSub(x, buf, 0)
				return builtGraph{
					out:      buf,
					stateful: map[string]pubsub.Pipe{"intersect": x},
					extra:    []sched.Task{sched.NewBufferTask(buf)},
				}
			},
		},
		{
			name:   "window-join-buffer-groupby",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				w0 := ops.NewTimeWindow("w0", wsize)
				w1 := ops.NewTimeWindow("w1", wsize)
				j := ops.NewEquiJoin("join", ident, ident, nil)
				buf := pubsub.NewBuffer("buf")
				gb := ops.NewGroupBy("gb", pairKey, aggregate.NewCount, nil)
				mustSub(srcs[0], w0, 0)
				mustSub(srcs[1], w1, 0)
				mustSub(w0, j, 0)
				mustSub(w1, j, 1)
				mustSub(j, buf, 0)
				mustSub(buf, gb, 0)
				return builtGraph{
					out:      gb,
					stateful: map[string]pubsub.Pipe{"join": j, "gb": gb},
					extra:    []sched.Task{sched.NewBufferTask(buf)},
				}
			},
		},
		{
			name:   "window-difference",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				w0 := ops.NewTimeWindow("w0", wsize)
				w1 := ops.NewTimeWindow("w1", wsize)
				d := ops.NewDifference("diff", nil)
				mustSub(srcs[0], w0, 0)
				mustSub(srcs[1], w1, 0)
				mustSub(w0, d, 0)
				mustSub(w1, d, 1)
				return builtGraph{out: d, stateful: map[string]pubsub.Pipe{"diff": d}}
			},
		},
		{
			// DISTINCT: the union's merged stream collapses into one span
			// per value, so the coalesce holds pending spans and finished
			// ones held back behind them.
			name:   "window-union-distinct",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				w0 := ops.NewTimeWindow("w0", wsize)
				w1 := ops.NewTimeWindow("w1", wsize)
				u := ops.NewUnion("union", 2)
				dst := ops.NewDistinct("distinct")
				mustSub(srcs[0], w0, 0)
				mustSub(srcs[1], w1, 0)
				mustSub(w0, u, 0)
				mustSub(w1, u, 1)
				mustSub(u, dst, 0)
				return builtGraph{out: dst, stateful: map[string]pubsub.Pipe{"union": u, "distinct": dst}}
			},
		},
		{
			// The count window sees the union's output: the union applies
			// its inputs merged in (Start, input) order, so which elements
			// share a window does not depend on how the two sources'
			// frames interleave, in the reference run or after recovery.
			name:   "union-countwindow-groupby",
			inputs: 2,
			build: func(srcs []pubsub.Source) builtGraph {
				u := ops.NewUnion("union", 2)
				cw := ops.NewCountWindow("cw", cwn)
				gb := ops.NewGroupBy("gb", mod, aggregate.NewCount, nil)
				mustSub(srcs[0], u, 0)
				mustSub(srcs[1], u, 1)
				mustSub(u, cw, 0)
				mustSub(cw, gb, 0)
				return builtGraph{out: gb, stateful: map[string]pubsub.Pipe{"union": u, "cw": cw, "gb": gb}}
			},
		},
	}
}

func mustSub(src pubsub.Source, sink pubsub.Sink, input int) {
	if err := src.Subscribe(sink, input); err != nil {
		panic(err)
	}
}

// randomInput generates one Start-ordered source stream of point events
// with small integer values (so joins and intersections find matches).
func randomInput(rng *rand.Rand, n int) []temporal.Element {
	out := make([]temporal.Element, n)
	start := temporal.Time(0)
	for i := range out {
		start += temporal.Time(rng.Intn(3))
		out[i] = temporal.Element{
			Value:    rng.Intn(8),
			Interval: temporal.Interval{Start: start, End: start + 1},
			Trace:    nil,
		}
	}
	return out
}

// TestCrashRecoveryStress is the tentpole acceptance test: randomized
// graphs (join + group-by + window and friends) run under the race
// detector with periodic checkpointing; a fault strikes at a random
// protocol point; the run is recovered from the latest complete
// checkpoint with archive replay from the recorded offsets; and the
// merged output — pre-crash output truncated at the checkpoint's sink
// cut, plus the recovered run's output — must be snapshot-equivalent to
// an uninterrupted run.
func TestCrashRecoveryStress(t *testing.T) {
	runs := 14
	if testing.Short() {
		runs = 4
	}
	points := []harness.FaultPoint{
		harness.FaultBetweenSaveAndAck,
		harness.FaultBeforeSeal,
		harness.FaultAfterSeal,
		harness.FaultMidDrain,
	}
	for run := 0; run < runs; run++ {
		run := run
		t.Run(fmt.Sprintf("run%02d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xF7A11 + int64(run)*7919))
			sh := shapes(rng)[run%len(shapes(rng))]
			point := points[rng.Intn(len(points))]
			n := 400 + rng.Intn(800)
			workers := 1 + rng.Intn(3)
			inputs := make([][]temporal.Element, sh.inputs)
			for i := range inputs {
				inputs[i] = randomInput(rng, n)
			}
			testCrashRecovery(t, sh, inputs, point, harness.FaultPlan{Point: point, AfterRound: 1 + uint64(rng.Intn(2))}, workers, rng)
		})
	}
}

func testCrashRecovery(t *testing.T, sh shape, inputs [][]temporal.Element, point harness.FaultPoint, plan harness.FaultPlan, workers int, rng *rand.Rand) {
	t.Logf("shape=%s fault=%v inputs=%d workers=%d", sh.name, point, len(inputs[0]), workers)

	// Uninterrupted reference via the standard harness.
	ref, err := harness.Reference(harness.Plan{
		Name:   sh.name,
		Inputs: inputs,
		Build: func(srcs []pubsub.Source) (pubsub.Source, []sched.Task, error) {
			g := sh.build(srcs)
			return g.out, g.extra, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The durable ingest log: archives hold the full source streams (in a
	// deployment the archive is fed upstream of the crash domain).
	archives := make([]*archive.Archive, len(inputs))
	for i, in := range inputs {
		archives[i] = archive.New(fmt.Sprintf("in%d", i), 16)
		for _, e := range in {
			archives[i].Process(e, 0)
		}
	}

	// Checkpointed run with fault injection. The store sits on the map
	// backend most runs and on the directory backend on some.
	inner, backend := ft.NewMemStore(), "mem"
	if rng.Intn(3) == 0 {
		fs, err := ft.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		inner, backend = fs, "dir"
	}
	t.Logf("backend=%s", backend)
	store := harness.NewTornStore(inner)
	mgr := ft.NewManager(store)
	crash := harness.NewCrash()
	plan.Arm(mgr, store, crash)

	css := make([]*ft.CheckpointSource, len(inputs))
	srcs := make([]pubsub.Source, len(inputs))
	for i, in := range inputs {
		cs := ft.NewCheckpointSource(pubsub.NewSliceSource(fmt.Sprintf("in%d", i), in))
		css[i] = cs
		srcs[i] = cs
		mgr.RegisterSource(cs)
	}
	g := sh.build(srcs)
	sink := ft.NewCheckpointSink("sink")
	mustSub(g.out, sink, 0)
	for name, op := range g.stateful {
		saver, ok := op.(ft.StateSaver)
		if !ok {
			t.Fatalf("operator %s does not implement StateSaver", name)
		}
		hooked, ok := op.(ft.BarrierHooked)
		if !ok {
			t.Fatalf("operator %s does not implement BarrierHooked", name)
		}
		mgr.RegisterOperator(hooked, saver)
	}
	mgr.RegisterSink(sink)
	mgr.Start(50 * time.Microsecond)

	s := sched.New(sched.Config{Workers: workers, BatchSize: 1 + rng.Intn(32)})
	for _, cs := range css {
		s.Add(sched.NewEmitterTask(cs))
	}
	for _, task := range g.extra {
		s.Add(task)
	}
	s.Start()
	finished := make(chan struct{})
	go func() { s.Wait(); close(finished) }()
	crashed := false
	select {
	case <-finished:
	case <-crash.C():
		crashed = true
		s.Stop()
	case <-time.After(30 * time.Second):
		t.Fatal("checkpointed run wedged")
	}
	mgr.Stop()

	if !crashed {
		// The stream finished before the fault window opened: the full
		// output must simply match the reference.
		if err := harness.Equivalent(ref, sink.Elements()); err != nil {
			t.Fatalf("uncrashed run not equivalent: %v", err)
		}
		return
	}

	// --- crash. Everything except store, archives and the sink's
	// already-delivered output is abandoned. ---

	cp, err := store.LatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	switch point {
	case harness.FaultBetweenSaveAndAck, harness.FaultBeforeSeal, harness.FaultMidDrain:
		// Seals were suppressed from the fault on: if a checkpoint exists
		// it must predate the faulted round.
		if cp != nil && cp.ID >= plan.AfterRound && point != harness.FaultMidDrain {
			t.Fatalf("checkpoint %d sealed despite %v fault at round %d", cp.ID, point, plan.AfterRound)
		}
	}

	var merged []temporal.Element
	if cp == nil {
		// No durable checkpoint: recover from scratch; the replayed run
		// alone must reproduce the reference.
		merged = nil
	} else {
		cut, ok := sink.Cut(cp.ID)
		if !ok {
			t.Fatalf("sealed checkpoint %d has no sink cut — seal must imply barrier reached the sink", cp.ID)
		}
		merged = append(merged, sink.Elements()[:cut]...)
	}

	// Recovery: fresh graph, restored state, replay from offsets.
	rsrcs := make([]pubsub.Source, len(inputs))
	remit := make([]pubsub.Emitter, len(inputs))
	for i := range inputs {
		em := archives[i].ReplayFrom(fmt.Sprintf("in%d", i), cp.Offset(fmt.Sprintf("in%d", i)))
		remit[i] = em
		rsrcs[i] = em
	}
	rg := sh.build(rsrcs)
	if cp != nil {
		loaders := map[string]ft.StateLoader{}
		for name, op := range rg.stateful {
			loaders[name] = op.(ft.StateLoader)
		}
		if err := ft.RestoreStates(cp, loaders); err != nil {
			t.Fatal(err)
		}
	}
	rcol := pubsub.NewCollector("rsink", 1)
	mustSub(rg.out, rcol, 0)

	rs := sched.New(sched.Config{Workers: workers})
	for _, em := range remit {
		rs.Add(sched.NewEmitterTask(em))
	}
	for _, task := range rg.extra {
		rs.Add(task)
	}
	rs.Start()
	rdone := make(chan struct{})
	go func() { rs.Wait(); close(rdone) }()
	select {
	case <-rdone:
	case <-time.After(30 * time.Second):
		t.Fatal("recovered run wedged")
	}
	select {
	case <-rcol.DoneC():
	case <-time.After(10 * time.Second):
		t.Fatal("recovered run: done never reached the sink")
	}

	merged = append(merged, rcol.Elements()...)
	if err := harness.Equivalent(ref, merged); err != nil {
		t.Fatalf("shape=%s fault=%v: merged output not snapshot-equivalent: %v\n(pre-crash cut %d elements, recovered %d, reference %d)",
			sh.name, point, err, len(merged)-len(rcol.Elements()), len(rcol.Elements()), len(ref))
	}
}

// A crash that corrupts the newest checkpoint's payloads after seal must
// not poison recovery: a process that opens the directory afterwards
// skips the torn round and falls back to the previous sealed one, whose
// state must be byte-identical to the direct EncodeState snapshot
// captured at its cut.
func TestRecoveryFallsBackPastTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := ft.NewManager(store)

	const perRound = 256
	const rounds = 3
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", manyElements(rounds*perRound)))
	win := ops.NewCountWindow("win", 4096)
	sink := ft.NewCheckpointSink("sink")
	mustSub(src, win, 0)
	mustSub(win, sink, 0)
	mgr.RegisterSource(src)
	mgr.RegisterOperator(win, win)
	mgr.RegisterSink(sink)
	mgr.Start(0)

	// Scalar snapshots at every cut: the barrier is injected ahead of the
	// round's elements, so the cut image is the state just before Trigger.
	snaps := map[uint64][]byte{}
	var lastID uint64
	for round := 0; round < rounds; round++ {
		full, err := ft.EncodeState(win)
		if err != nil {
			t.Fatal(err)
		}
		id, err := mgr.Trigger()
		if err != nil {
			t.Fatal(err)
		}
		snaps[id] = full
		for i := 0; i < perRound; i++ {
			src.EmitNext()
		}
		waitSealed(t, mgr, id)
		lastID = id
	}
	mgr.Stop()
	if lastID != rounds {
		t.Fatalf("sealed %d rounds, want %d", lastID, rounds)
	}
	tailDir := filepath.Join(dir, fmt.Sprintf("cp-%d", lastID))

	// Tear the tail: truncate the payloads of the newest checkpoint.
	payloads, err := filepath.Glob(filepath.Join(tailDir, "state-*.bin"))
	if err != nil || len(payloads) == 0 {
		t.Fatalf("no state payloads in %s (err %v)", tailDir, err)
	}
	for _, f := range payloads {
		if err := os.Truncate(f, 1); err != nil {
			t.Fatal(err)
		}
	}

	// A recovering process opens the directory fresh: the torn tail is
	// skipped without error and the previous sealed checkpoint wins.
	reopened, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := reopened.LatestComplete()
	if err != nil {
		t.Fatalf("torn tail must fall back, not fail: %v", err)
	}
	if cp == nil || cp.ID != lastID-1 {
		t.Fatalf("latest after torn tail = %+v, want checkpoint %d", cp, lastID-1)
	}
	if !bytes.Equal(cp.States["win"], snaps[cp.ID]) {
		t.Fatalf("resolved state (%dB) differs from the scalar snapshot at cut %d (%dB)",
			len(cp.States["win"]), cp.ID, len(snaps[cp.ID]))
	}
	if got := cp.Offset("src"); got != perRound*int(cp.ID-1) {
		t.Fatalf("replay offset = %d, want %d", got, perRound*int(cp.ID-1))
	}

	// The stored image restores into a fresh operator and re-encodes
	// byte-identically — the full scalar round trip.
	fresh := ops.NewCountWindow("win", 4096)
	if err := ft.RestoreStates(cp, map[string]ft.StateLoader{"win": fresh}); err != nil {
		t.Fatal(err)
	}
	again, err := ft.EncodeState(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snaps[cp.ID]) {
		t.Fatal("restored operator re-encodes differently from the scalar snapshot")
	}
}
