package ft_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// sealRounds runs one manager's life over store: a source feeding a count
// window (values from, from+1, …) in rounds+1 stretches of 512 elements,
// with a manually triggered round ahead of every stretch but the first. It
// checks after every seal that the store resolves the round to the
// window's full encoding at its cut — whatever mix of base, delta and
// unchanged entries the round wrote — and returns the stopped manager,
// the sealed IDs and those encodings, in round order.
func sealRounds(t *testing.T, store ft.CheckpointStore, baseEvery, rounds, from int) (mgr *ft.Manager, ids []uint64, snaps [][]byte) {
	t.Helper()
	mgr = ft.NewManager(store)
	mgr.SetBaseEvery(baseEvery)
	// A stretch is long enough that every round's delta against the last
	// comes out smaller than the full state, so chains form.
	const perRound = 512
	es := manyElements((rounds + 1) * perRound)
	for i := range es {
		es[i].Value = from + i
	}
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", es))
	win := ops.NewCountWindow("win", 4096)
	sink := ft.NewCheckpointSink("sink")
	mustSub(src, win, 0)
	mustSub(win, sink, 0)
	mgr.RegisterSource(src)
	mgr.RegisterOperator(win, win)
	mgr.RegisterSink(sink)
	mgr.Start(0)
	defer mgr.Stop()
	for i := 0; i < perRound; i++ {
		src.EmitNext()
	}
	for round := 0; round < rounds; round++ {
		// The cut is injected ahead of this round's elements, so the
		// expected full image is the operator's state right now.
		full, err := ft.EncodeState(win)
		if err != nil {
			t.Fatal(err)
		}
		id, err := mgr.Trigger()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRound; i++ {
			src.EmitNext() // Trigger injected the barrier ahead of these
		}
		waitSealed(t, mgr, id)
		if cp := mustLatest(t, store, id); !bytes.Equal(cp.States["win"], full) {
			t.Fatalf("round %d: resolved state (%dB) differs from the cut's full encoding (%dB)",
				id, len(cp.States["win"]), len(full))
		}
		ids = append(ids, id)
		snaps = append(snaps, full)
	}
	return mgr, ids, snaps
}

// The restart scenario: a second manager over a store that already holds
// sealed rounds. Its rounds are numbered above them — it neither
// overwrites a sealed checkpoint nor seals a newer state under an older
// ID, so a chain never resolves against another run's parent — its first
// round is a base, the old run's newest rounds stay until the new run has
// two of its own, and every LatestComplete in between returns a state one
// of the two runs actually held.
func TestManagerContinuesAboveSealedIDs(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		// Run A: rounds 1‥7, bases at 1 and 6, 7 a delta against 6.
		_, idsA, snapsA := sealRounds(t, open(), 5, 7, 0)
		if want := []uint64{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(idsA, want) {
			t.Fatalf("run A sealed %v, want %v", idsA, want)
		}
		store := open()
		mustIDs(t, store, 6, 7)
		if cp := mustLatest(t, store, 7); !bytes.Equal(cp.States["win"], snapsA[6]) {
			t.Fatal("run A's last round does not resolve to its cut")
		}

		// Run B, other data, same store: one round, then a crash.
		_, idsB, _ := sealRounds(t, store, 5, 1, 100000)
		if want := []uint64{8}; !reflect.DeepEqual(idsB, want) {
			t.Fatalf("run B sealed %v over a store holding 1‥7, want %v", idsB, want)
		}
		store = open()
		mustIDs(t, store, 6, 7, 8) // one sealed round of B: A's stay as the fallback
		if m, err := store.RawGet(8, ft.ManifestName); err != nil || strings.Contains(string(m), `"parent"`) {
			t.Fatalf("a new manager's first round must be a base (err %v):\n%s", err, m)
		}

		// Run C: six more rounds; retention now lets go of A and B.
		_, idsC, snapsC := sealRounds(t, store, 5, 6, 200000)
		if want := []uint64{9, 10, 11, 12, 13, 14}; !reflect.DeepEqual(idsC, want) {
			t.Fatalf("run C sealed %v, want %v", idsC, want)
		}
		store = open()
		mustIDs(t, store, 9, 10, 11, 12, 13, 14) // base 9, deltas 10‥13, base 14: 13 needs its whole chain
		if err := store.RawRemove(14); err != nil {
			t.Fatal(err)
		}
		if cp := mustLatest(t, store, 13); !bytes.Equal(cp.States["win"], snapsC[4]) {
			t.Fatal("run C's chained round does not resolve to its cut")
		}
	})
}

// End-to-end: a manager writes base rounds at the configured cadence and
// delta/unchanged rounds in between, retention keeps every live chain
// resolvable, and the resolved state at each round is byte-identical to
// the full encoding the operator would have written.
func TestManagerWritesDeltaChain(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		mgr, ids, _ := sealRounds(t, open(), 3, 6, 0)
		if want := []uint64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("sealed %v, want %v", ids, want)
		}
		// baseEvery=3 over 6 sealed rounds: rounds 1 and 4 are bases, the
		// rest chain. (Round 1 has no parent; the cadence restarts there.)
		if mgr.FullBytesTotal() <= mgr.WrittenBytesTotal() {
			t.Fatalf("written %dB >= full %dB: chain never compressed a round",
				mgr.WrittenBytesTotal(), mgr.FullBytesTotal())
		}
	})
}

// The SnapshotState closure runs on the checkpoint writer while the
// operator keeps processing: it must encode the state as of the capture,
// not the live state.
func TestSnapshotStateCapturesAtCall(t *testing.T) {
	join := ops.NewEquiJoin("join", func(v any) any { return v }, func(v any) any { return v }, nil)
	join.ProcessBatch(temporal.Batch{el(1, 1, 10)}, 0)
	join.ProcessBatch(temporal.Batch{el(2, 2, 10)}, 1)
	join.ProcessBatch(temporal.Batch{el(1, 3, 8)}, 1)

	direct, err := ft.EncodeState(join)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := join.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	join.ProcessBatch(temporal.Batch{el(3, 4, 9)}, 0) // mutate after the capture
	viaHandle, err := fn(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, viaHandle) {
		t.Fatalf("closure encoded %dB after a later mutation, %dB at capture time",
			len(viaHandle), len(direct))
	}
}

func manyElements(n int) []temporal.Element {
	es := make([]temporal.Element, n)
	for i := range es {
		es[i] = el(i, temporal.Time(i+1), temporal.Time(i+20))
	}
	return es
}
