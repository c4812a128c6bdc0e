package ft_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// chainSeal stages one chained checkpoint: full states, deltas against
// parents, and unchanged markers, then seals.
func chainSeal(t *testing.T, s ft.CheckpointStore, id uint64, full map[string][]byte,
	deltas map[string]struct {
		parent uint64
		blob   []byte
	}, same map[string]uint64) {
	t.Helper()
	w, err := s.Begin(id)
	if err != nil {
		t.Fatal(err)
	}
	cw, ok := w.(ft.ChainWriter)
	if !ok {
		t.Fatalf("%T does not implement ChainWriter", w)
	}
	for op, st := range full {
		if err := w.PutState(op, st); err != nil {
			t.Fatal(err)
		}
	}
	for op, d := range deltas {
		if err := cw.PutStateDelta(op, d.parent, d.blob); err != nil {
			t.Fatal(err)
		}
	}
	for op, parent := range same {
		if err := cw.PutStateUnchanged(op, parent); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PutOffset("src", int(id)*10); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
}

// Both stores must resolve a base+delta+unchanged chain back to the full
// state image, byte-identical to what a full write would have stored.
func TestStoresResolveDeltaChains(t *testing.T) {
	fileStore, err := ft.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]ft.CheckpointStore{
		"mem":  ft.NewMemStore(),
		"file": fileStore,
	} {
		t.Run(name, func(t *testing.T) {
			// Varied content (CDC needs content entropy to place chunk
			// boundaries), mutated by tail appends like a filling window.
			base := make([]byte, 32<<10)
			for i := range base {
				base[i] = byte(i*131 + i>>8)
			}
			v2 := append(append([]byte(nil), base...), []byte("round-two-suffix")...)
			v3 := append(append([]byte(nil), v2...), []byte("round-three-suffix")...)
			d2 := ft.MakeDelta(base, v2)
			d3 := ft.MakeDelta(v2, v3)
			if d2 == nil || d3 == nil {
				t.Fatal("tail-append states produced no deltas")
			}

			chainSeal(t, store, 1, map[string][]byte{"win": base, "quiet": []byte("idle")}, nil, nil)
			chainSeal(t, store, 2, nil,
				map[string]struct {
					parent uint64
					blob   []byte
				}{"win": {1, d2}},
				map[string]uint64{"quiet": 1})
			chainSeal(t, store, 3, nil,
				map[string]struct {
					parent uint64
					blob   []byte
				}{"win": {2, d3}},
				map[string]uint64{"quiet": 2})

			cp, err := store.LatestComplete()
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil || cp.ID != 3 {
				t.Fatalf("latest = %+v", cp)
			}
			if !bytes.Equal(cp.States["win"], v3) {
				t.Fatalf("win resolved to %dB, want %dB (v3)", len(cp.States["win"]), len(v3))
			}
			if string(cp.States["quiet"]) != "idle" {
				t.Fatalf("quiet resolved to %q through unchanged chain", cp.States["quiet"])
			}
			if cp.Offsets["src"] != 30 {
				t.Fatalf("offsets = %v", cp.Offsets)
			}

			// Retention must refuse to tear the live chain: every ancestor
			// of checkpoint 3 survives a Drop(2).
			if err := store.Drop(2); err != nil {
				t.Fatal(err)
			}
			cp, err = store.LatestComplete()
			if err != nil || cp == nil || cp.ID != 3 {
				t.Fatalf("after drop: %+v, %v", cp, err)
			}
			if !bytes.Equal(cp.States["win"], v3) {
				t.Fatal("chain torn by Drop: win no longer resolves")
			}
		})
	}
}

// Satellite regression: a crash between data write and seal must not
// leave the orphan cp-<id> directory (with its data files and manifest
// temp) behind — NewFileStore sweeps unsealed directories on open, and a
// later round can safely reuse the ID.
func TestFileStoreSweepsUnsealedOnOpen(t *testing.T) {
	dir := t.TempDir()
	store, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustSeal(t, store, 1, map[string]int{"src": 5}, map[string][]byte{"op": []byte("good")})

	// Injected crash between write and seal: data staged, manifest never
	// renamed into place. Also fake the half-written manifest temp file a
	// crash mid-Seal leaves.
	w, err := store.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutState("op", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cp-2", "MANIFEST.json.tmp"), []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// w abandoned here — the crash.

	reopened, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cp-2")); !os.IsNotExist(err) {
		t.Fatalf("orphan cp-2 survived reopen (stat err = %v)", err)
	}
	if cp, err := reopened.LatestComplete(); err != nil || cp == nil || cp.ID != 1 {
		t.Fatalf("sealed cp-1 lost by sweep: %+v, %v", cp, err)
	}

	// The swept ID is safely reusable.
	mustSeal(t, reopened, 2, map[string]int{"src": 9}, map[string][]byte{"op": []byte("retried")})
	cp, err := reopened.LatestComplete()
	if err != nil || cp == nil || cp.ID != 2 || string(cp.States["op"]) != "retried" {
		t.Fatalf("reused ID after sweep: %+v, %v", cp, err)
	}

	// A stale manifest temp next to a *sealed* manifest is junk from a
	// crash mid-reseal; reopening removes the temp, keeps the checkpoint.
	tmp := filepath.Join(dir, "cp-2", "MANIFEST.json.tmp")
	if err := os.WriteFile(tmp, []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ft.NewFileStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale manifest temp survived reopen (stat err = %v)", err)
	}
}

// Satellite regression: Drop must be driven by the directory listing, not
// an assumed-dense ID walk — gaps left by torn rounds and earlier drops
// must not shadow older checkpoints from retention.
func TestFileStoreDropHandlesGappedLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse IDs: failed rounds 2, 4-6 left gaps.
	for _, id := range []uint64{1, 3, 7} {
		mustSeal(t, store, id, map[string]int{"src": int(id)}, map[string][]byte{"op": []byte{byte(id)}})
	}
	if err := store.Drop(6); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 3} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("cp-%d", id))); !os.IsNotExist(err) {
			t.Errorf("cp-%d survived Drop(6) across the gap (stat err = %v)", id, err)
		}
	}
	if cp, err := store.LatestComplete(); err != nil || cp == nil || cp.ID != 7 {
		t.Fatalf("cp-7 must survive: %+v, %v", cp, err)
	}
}

// End-to-end: a manager on a chain-capable store writes base rounds at
// the configured cadence and delta/unchanged rounds in between, retention
// keeps every live chain resolvable, and the resolved state at each round
// is byte-identical to the full encoding the operator would have written.
func TestManagerWritesDeltaChain(t *testing.T) {
	store := ft.NewMemStore()
	mgr := ft.NewManager(store)
	mgr.SetBaseEvery(3)

	const perRound = 256
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", manyElements(6*perRound)))
	win := ops.NewCountWindow("win", 4096)
	sink := ft.NewCheckpointSink("sink")
	if err := src.Subscribe(win, 0); err != nil {
		t.Fatal(err)
	}
	if err := win.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	mgr.RegisterSource(src)
	mgr.RegisterOperator(win, win)
	mgr.RegisterSink(sink)
	mgr.Start(0)
	defer mgr.Stop()

	var lastID uint64
	for round := 0; round < 6; round++ {
		// The cut is injected ahead of this round's elements, so the
		// expected full image is the operator's state right now.
		var full bytes.Buffer
		if err := ft.EncodeState(win, gob.NewEncoder(&full)); err != nil {
			t.Fatal(err)
		}
		id, err := mgr.Trigger()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRound; i++ {
			src.EmitNext() // the first emit injects the barrier
		}
		waitSealed(t, mgr, id)

		cp, err := store.LatestComplete()
		if err != nil || cp == nil || cp.ID != id {
			t.Fatalf("round %d: latest = %+v, %v", round, cp, err)
		}
		if !bytes.Equal(cp.States["win"], full.Bytes()) {
			t.Fatalf("round %d: resolved state (%dB) differs from the cut's full encoding (%dB)",
				round, len(cp.States["win"]), full.Len())
		}
		lastID = id
	}
	if lastID != 6 {
		t.Fatalf("last round = %d, want 6", lastID)
	}
	// baseEvery=3 over 6 sealed rounds: rounds 1 and 4 are bases, the
	// rest chain. (Round 1 has no parent; the cadence restarts there.)
	if mgr.FullBytesTotal() <= mgr.WrittenBytesTotal() {
		t.Fatalf("written %dB >= full %dB: chain never compressed a round",
			mgr.WrittenBytesTotal(), mgr.FullBytesTotal())
	}
}

// The SnapshotState closure runs on the checkpoint writer while the
// operator keeps processing: it must encode the state as of the capture,
// not the live state.
func TestSnapshotStateCapturesAtCall(t *testing.T) {
	join := ops.NewEquiJoin("join", func(v any) any { return v }, func(v any) any { return v }, nil)
	join.ProcessBatch(temporal.Batch{el(1, 1, 10)}, 0)
	join.ProcessBatch(temporal.Batch{el(2, 2, 10)}, 1)
	join.ProcessBatch(temporal.Batch{el(1, 3, 8)}, 1)

	var direct bytes.Buffer
	if err := ft.EncodeState(join, gob.NewEncoder(&direct)); err != nil {
		t.Fatal(err)
	}
	fn, err := join.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	join.ProcessBatch(temporal.Batch{el(3, 4, 9)}, 0) // mutate after the capture
	var viaHandle bytes.Buffer
	if err := fn(gob.NewEncoder(&viaHandle)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaHandle.Bytes()) {
		t.Fatalf("closure encoded %dB after a later mutation, %dB at capture time",
			viaHandle.Len(), direct.Len())
	}
}

func manyElements(n int) []temporal.Element {
	es := make([]temporal.Element, n)
	for i := range es {
		es[i] = el(i, temporal.Time(i+1), temporal.Time(i+20))
	}
	return es
}
