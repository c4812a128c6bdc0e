package ft_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// sealRounds runs one manager's life over store: a source feeding a count
// window (values from, from+1, …) in rounds+1 stretches of 512 elements,
// with a manually triggered round ahead of every stretch but the first,
// and an idle count window behind a filter that passes nothing, whose
// state never changes. It checks after every seal that both windows'
// entries are whole state entries and that the store returns both
// windows' encodings at the round's cut, and returns the sealed IDs and
// the busy window's encodings, in round order.
func sealRounds(t *testing.T, store *ft.Store, rounds, from int) (ids []uint64, snaps [][]byte) {
	t.Helper()
	mgr := ft.NewManager(store)
	const perRound = 512
	es := manyElements((rounds + 1) * perRound)
	for i := range es {
		es[i].Value = from + i
	}
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", es))
	win := ops.NewCountWindow("win", 4096)
	none := ops.NewFilter("none", func(any) bool { return false })
	idle := ops.NewCountWindow("idle", 4096)
	sink := ft.NewCheckpointSink("sink")
	mustSub(src, win, 0)
	mustSub(win, sink, 0)
	mustSub(src, none, 0)
	mustSub(none, idle, 0)
	mgr.RegisterSource(src)
	mgr.RegisterOperator(win, win)
	mgr.RegisterOperator(idle, idle)
	mgr.RegisterSink(sink)
	idleFull, err := ft.EncodeState(idle)
	if err != nil {
		t.Fatal(err)
	}
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
		for _, op := range []string{"win", "idle"} {
			if kind := entryKind(t, store, id, op); kind != "state" {
				t.Fatalf("round %d's %s entry is %q, want state", id, op, kind)
			}
		}
		cp := mustLatest(t, store, id)
		if !bytes.Equal(cp.States["win"], full) {
			t.Fatalf("round %d: stored state (%dB) differs from the cut's full encoding (%dB)",
				id, len(cp.States["win"]), len(full))
		}
		if !bytes.Equal(cp.States["idle"], idleFull) {
			t.Fatalf("round %d: the idle window stored %dB, not its %dB encoding",
				id, len(cp.States["idle"]), len(idleFull))
		}
		ids = append(ids, id)
		snaps = append(snaps, full)
	}
	return ids, snaps
}

// The restart scenario: a second manager over a store that already holds
// sealed rounds. Its rounds are numbered above them — it neither
// overwrites a sealed checkpoint nor seals a newer state under an older
// ID — the old run's newest rounds stay until the new run has two of its
// own, and every LatestComplete in between returns a state one of the two
// runs actually held.
func TestManagerContinuesAboveSealedIDs(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		// Run A: rounds 1‥7.
		idsA, snapsA := sealRounds(t, open(), 7, 0)
		if want := []uint64{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(idsA, want) {
			t.Fatalf("run A sealed %v, want %v", idsA, want)
		}
		store := open()
		mustIDs(t, store, 6, 7)
		if cp := mustLatest(t, store, 7); !bytes.Equal(cp.States["win"], snapsA[6]) {
			t.Fatal("run A's last round does not hold its cut")
		}

		// Run B, other data, same store: one round, then a crash.
		idsB, _ := sealRounds(t, store, 1, 100000)
		if want := []uint64{8}; !reflect.DeepEqual(idsB, want) {
			t.Fatalf("run B sealed %v over a store holding 1‥7, want %v", idsB, want)
		}
		store = open()
		mustIDs(t, store, 6, 7, 8) // one sealed round of B: A's stay as the fallback

		// Run C: six more rounds; retention now lets go of A and B.
		idsC, snapsC := sealRounds(t, store, 6, 200000)
		if want := []uint64{9, 10, 11, 12, 13, 14}; !reflect.DeepEqual(idsC, want) {
			t.Fatalf("run C sealed %v, want %v", idsC, want)
		}
		store = open()
		mustIDs(t, store, 13, 14)
		if err := store.RawRemove(14); err != nil {
			t.Fatal(err)
		}
		if cp := mustLatest(t, store, 13); !bytes.Equal(cp.States["win"], snapsC[4]) {
			t.Fatal("run C's round 13 does not hold its cut")
		}
	})
}

// An idle operator's state is written whole in every round, like a busy
// one's (sealRounds checks each entry), and retention keeps exactly the
// two newest rounds: no round stays behind for a later one to refer to.
func TestManagerWritesUnchangedStates(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		ids, _ := sealRounds(t, open(), 5, 0)
		if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("sealed %v, want %v", ids, want)
		}
		mustIDs(t, open(), 4, 5)
	})
}

// entryKind returns the kind of op's entry in checkpoint id's manifest.
func entryKind(t *testing.T, s *ft.Store, id uint64, op string) string {
	t.Helper()
	raw, err := s.RawGet(id, ft.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Entries []struct{ Kind, Name string }
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Entries {
		if e.Name == op {
			return e.Kind
		}
	}
	t.Fatalf("checkpoint %d has no entry for %s", id, op)
	return ""
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
