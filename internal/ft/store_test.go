package ft_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pipes/internal/ft"
)

// eachBackend is the one table of the store tests: fn runs once per
// backend of the one store. open returns the store as whoever opens it
// next finds it — the directory is opened again, sweep and all; the map,
// which no process outlives, is the same store again.
func eachBackend(t *testing.T, fn func(t *testing.T, open func() *ft.Store)) {
	t.Run("mem", func(t *testing.T) {
		s := ft.NewMemStore()
		fn(t, func() *ft.Store { return s })
	})
	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		fn(t, func() *ft.Store {
			s, err := ft.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// mustSeal stages states and offsets, then seals.
func mustSeal(t *testing.T, s ft.CheckpointStore, id uint64, offsets map[string]int, states map[string][]byte) {
	t.Helper()
	w, err := s.Begin(id)
	if err != nil {
		t.Fatal(err)
	}
	for name, off := range offsets {
		if err := w.PutOffset(name, off); err != nil {
			t.Fatal(err)
		}
	}
	for op, st := range states {
		if err := w.PutState(op, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
}

func mustLatest(t *testing.T, s ft.CheckpointStore, wantID uint64) *ft.Checkpoint {
	t.Helper()
	cp, err := s.LatestComplete()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.ID != wantID {
		t.Fatalf("latest = %+v, want checkpoint %d", cp, wantID)
	}
	return cp
}

func mustIDs(t *testing.T, s *ft.Store, want ...uint64) {
	t.Helper()
	got, err := s.RawIDs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store holds checkpoints %v, want %v", got, want)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		store := open()
		if cp, err := store.LatestComplete(); err != nil || cp != nil {
			t.Fatalf("empty store: got %v, %v", cp, err)
		}
		mustSeal(t, store, 1, map[string]int{"src": 10}, map[string][]byte{"op": []byte("one")})
		mustSeal(t, store, 2, map[string]int{"src": 25}, map[string][]byte{"op": []byte("two")})
		cp := mustLatest(t, store, 2)
		if cp.Offsets["src"] != 25 || string(cp.States["op"]) != "two" {
			t.Fatalf("latest: got %+v", cp)
		}
		if err := store.Drop(1); err != nil {
			t.Fatal(err)
		}
		mustLatest(t, store, 2)
		mustIDs(t, store, 2)
	})
}

// An unsealed checkpoint (crash before the manifest commit) must be
// invisible; a sealed checkpoint with a corrupted payload must be
// skipped in favour of the previous complete one.
func TestStoreSkipsTornCheckpoints(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		store := open()
		mustSeal(t, store, 1, map[string]int{"src": 5}, map[string][]byte{"op": []byte("good")})

		// Torn write: state written, no manifest.
		w, err := store.Begin(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PutState("op", []byte("unsealed")); err != nil {
			t.Fatal(err)
		}
		mustLatest(t, store, 1)

		// Sealed but corrupted: overwrite the one payload's content.
		mustSeal(t, store, 3, map[string]int{"src": 9}, map[string][]byte{"op": []byte("later")})
		if b, err := store.RawGet(3, "state-1.bin"); err != nil || string(b) != "later" {
			t.Fatalf("payload of checkpoint 3: %q, %v", b, err)
		}
		if err := store.RawPut(3, "state-1.bin", []byte("XXXXX")); err != nil {
			t.Fatal(err)
		}
		mustLatest(t, store, 1)
	})
}

// A sealed checkpoint is never mutated: Begin refuses its ID by name, in
// this process and the next. Unsealed debris under an ID is not a
// checkpoint — Begin starts clean over it.
func TestBeginRefusesSealedID(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		store := open()
		mustSeal(t, store, 1, map[string]int{"src": 5}, map[string][]byte{"op": []byte("first")})
		manifest, err := store.RawGet(1, ft.ManifestName)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*ft.Store{store, open()} {
			if w, err := s.Begin(1); w != nil || !errors.Is(err, ft.ErrSealed) {
				t.Fatalf("Begin on sealed ID = %v, %v; want ErrSealed", w, err)
			}
			if got := s.LastID(); got != 1 {
				t.Fatalf("LastID = %d, want 1", got)
			}
			cp := mustLatest(t, s, 1)
			after, err := s.RawGet(1, ft.ManifestName)
			if err != nil || !bytes.Equal(after, manifest) || string(cp.States["op"]) != "first" {
				t.Fatalf("sealed checkpoint mutated by a refused Begin (err %v)", err)
			}
		}

		// A failed round in this process: two payloads, no seal.
		w, err := store.Begin(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"a", "b"} {
			if err := w.PutState(op, []byte("doomed")); err != nil {
				t.Fatal(err)
			}
		}
		mustSeal(t, store, 2, nil, map[string][]byte{"c": []byte("retried")})
		if _, err := store.RawGet(2, "state-2.bin"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("debris payload survived Begin (err %v)", err)
		}
		cp := mustLatest(t, store, 2)
		if len(cp.States) != 1 || string(cp.States["c"]) != "retried" {
			t.Fatalf("checkpoint over debris: %+v", cp)
		}
		if got := open().LastID(); got != 2 {
			t.Fatalf("LastID = %d, want 2", got)
		}
	})
}

// A crash between data write and seal must not leave the orphan cp-<id>
// directory (with its data files and manifest temp) behind — NewFileStore
// sweeps unsealed directories on open. This is also the test that pins the
// directory backend's layout: cp-<id>/, state-<seq>.bin, MANIFEST.json,
// MANIFEST.json.tmp.
func TestDirSweepsUnsealedOnOpen(t *testing.T) {
	dir := t.TempDir()
	store, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustSeal(t, store, 1, map[string]int{"src": 5}, map[string][]byte{"op": []byte("good")})
	for _, f := range []string{"state-1.bin", "MANIFEST.json"} {
		if _, err := os.Stat(filepath.Join(dir, "cp-1", f)); err != nil {
			t.Fatalf("sealed layout: %v", err)
		}
	}

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
	if _, err := os.Stat(filepath.Join(dir, "cp-2", "state-1.bin")); err != nil {
		t.Fatalf("staged layout: %v", err)
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
	mustLatest(t, reopened, 1)

	// The swept ID was never sealed, so it is free.
	mustSeal(t, reopened, 2, map[string]int{"src": 9}, map[string][]byte{"op": []byte("retried")})
	if cp := mustLatest(t, reopened, 2); string(cp.States["op"]) != "retried" {
		t.Fatalf("ID reused after sweep: %+v", cp)
	}

	// A stale manifest temp next to a *sealed* manifest is junk;
	// reopening removes the temp, keeps the checkpoint.
	tmp := filepath.Join(dir, "cp-2", "MANIFEST.json.tmp")
	if err := os.WriteFile(tmp, []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := ft.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale manifest temp survived reopen (stat err = %v)", err)
	}
	mustLatest(t, again, 2)
}

// Drop must be driven by the backend's listing, not an assumed-dense ID
// walk — gaps left by torn rounds and earlier drops must not shadow older
// checkpoints from retention, and a failed round's debris goes too.
func TestStoreDropHandlesGappedLayout(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *ft.Store) {
		store := open()
		// Sparse IDs: failed rounds 2, 4-6 left gaps, 5 left payloads.
		for _, id := range []uint64{1, 3, 7} {
			mustSeal(t, store, id, map[string]int{"src": int(id)}, map[string][]byte{"op": {byte(id)}})
		}
		w, err := store.Begin(5)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PutState("op", []byte("never sealed")); err != nil {
			t.Fatal(err)
		}
		mustIDs(t, store, 1, 3, 5, 7)
		if err := store.Drop(6); err != nil {
			t.Fatal(err)
		}
		mustIDs(t, store, 7)
		mustLatest(t, store, 7)
	})
}

// sealVersioned seals checkpoint id holding one full state entry, then
// rewrites its stamp to version the way a build of that version would
// have left it (absent from the manifest for 0).
func sealVersioned(t *testing.T, s *ft.Store, id uint64, version int) {
	t.Helper()
	mustSeal(t, s, id, map[string]int{"src": 7}, map[string][]byte{"γ#5": []byte("state")})
	if version == ft.StateVersion {
		return
	}
	raw, err := s.RawGet(id, ft.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "state_version")
	if version != 0 {
		fields["state_version"] = json.RawMessage(fmt.Sprint(version))
	}
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := s.RawCommit(id, raw); err != nil {
		t.Fatal(err)
	}
}

// A store sealed by another build names operators the way that build
// numbered them ("γ#5" there is not "γ#5" here) and records what that
// build's manifests recorded. It must be refused with both versions
// named, never handed to RestoreStates — also when an older checkpoint
// would load.
func TestStoreRefusesOtherStateVersion(t *testing.T) {
	refused := func(t *testing.T, s *ft.Store, sealedUnder int) {
		t.Helper()
		cp, err := s.LatestComplete()
		if cp != nil || !errors.Is(err, ft.ErrStateVersion) {
			t.Fatalf("LatestComplete = %v, %v; want no checkpoint and ErrStateVersion", cp, err)
		}
		for _, want := range []string{
			fmt.Sprintf("state version %d,", sealedUnder),
			fmt.Sprintf("reads version %d", ft.StateVersion),
		} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not say %q", err, want)
			}
		}
	}
	for name, c := range map[string]func(t *testing.T, s *ft.Store){
		"current version loads": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, ft.StateVersion)
			if cp := mustLatest(t, s, 1); string(cp.States["γ#5"]) != "state" {
				t.Fatalf("latest = %+v", cp)
			}
		},
		"version 0": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, 0)
			refused(t, s, 0)
		},
		"previous version": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, ft.StateVersion-1)
			refused(t, s, ft.StateVersion-1)
		},
		"newer build": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, ft.StateVersion+1)
			refused(t, s, ft.StateVersion+1)
		},
		"no fallback past it": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, ft.StateVersion)
			sealVersioned(t, s, 2, 0)
			refused(t, s, 0)
		},
		// Version 6 has no entries for δ, DSTREAM and RSTREAM: restoring
		// it would leave them empty without an error.
		"version 6 without δ, DSTREAM or RSTREAM state": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, 6)
			refused(t, s, 6)
		},
		// Version 5 held []any group rows in a group-by's pending output,
		// which a tuple sink of this build would fail to read.
		"version 5 group rows": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, 5)
			refused(t, s, 5)
		},
		// Version 4 wrote a same marker naming the older round (its
		// origin) whose state entry held the bytes; this build reads
		// every entry from its own payload.
		"old origin": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, 4)
			manifest := fmt.Sprintf(`{"id":2,"state_version":4,"entries":[`+
				`{"file":"","kind":"offset","name":"src","size":0,"crc32":0,"offset":9},`+
				`{"file":"","kind":"same","name":"γ#5","size":0,"crc32":0,"origin":1,"state_crc32":%d}]}`,
				crc32.ChecksumIEEE([]byte("state")))
			if err := s.RawCommit(2, []byte(manifest)); err != nil {
				t.Fatal(err)
			}
			refused(t, s, 4)
		},
		// Version 3 wrote byte deltas against a parent round; this build
		// has no decoder for them.
		"version 3 delta entry": func(t *testing.T, s *ft.Store) {
			sealVersioned(t, s, 1, 3)
			delta := []byte("PD1\x02\x00\x05")
			if err := s.RawPut(2, "state-1.bin", delta); err != nil {
				t.Fatal(err)
			}
			manifest := fmt.Sprintf(`{"id":2,"state_version":3,"entries":[`+
				`{"file":"","kind":"offset","name":"src","size":0,"crc32":0,"offset":9},`+
				`{"file":"state-1.bin","kind":"delta","name":"γ#5","size":%d,"crc32":%d,"parent":1,"state_crc32":%d}]}`,
				len(delta), crc32.ChecksumIEEE(delta), crc32.ChecksumIEEE([]byte("state")))
			if err := s.RawCommit(2, []byte(manifest)); err != nil {
				t.Fatal(err)
			}
			refused(t, s, 3)
		},
	} {
		t.Run(name, func(t *testing.T) {
			eachBackend(t, func(t *testing.T, open func() *ft.Store) { c(t, open()) })
		})
	}
}
