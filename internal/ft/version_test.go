package ft

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sealVersioned seals checkpoint id holding one full state entry, then
// rewrites its stamp to version the way a build of that version would
// have left it (absent from the manifest for 0).
func sealVersioned(t *testing.T, s CheckpointStore, id uint64, version int) {
	t.Helper()
	w, err := s.Begin(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutState("γ#5", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := w.PutOffset("src", 7); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if version == StateVersion {
		return
	}
	switch st := s.(type) {
	case *MemStore:
		st.sealed[id].version = version
	case *FileStore:
		path := filepath.Join(st.dir, fmt.Sprintf("cp-%d", id), manifestName)
		raw, err := os.ReadFile(path)
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
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A store sealed by a build without the field (version 0) names
// operators the way that build numbered them: "γ#5" there is not "γ#5"
// here. It must be refused with both versions named, never handed to
// RestoreStates — also when an older checkpoint would load, and also when
// only a delta parent is old.
func TestStoresRefuseOtherStateVersion(t *testing.T) {
	stores := map[string]func(t *testing.T) CheckpointStore{
		"mem": func(*testing.T) CheckpointStore { return NewMemStore() },
		"file": func(t *testing.T) CheckpointStore {
			s, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	refused := func(t *testing.T, s CheckpointStore, sealedUnder int) {
		t.Helper()
		cp, err := s.LatestComplete()
		if cp != nil || !errors.Is(err, ErrStateVersion) {
			t.Fatalf("LatestComplete = %v, %v; want no checkpoint and ErrStateVersion", cp, err)
		}
		for _, want := range []string{
			fmt.Sprintf("state version %d,", sealedUnder),
			fmt.Sprintf("reads version %d", StateVersion),
		} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not say %q", err, want)
			}
		}
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			t.Run("current version loads", func(t *testing.T) {
				s := open(t)
				sealVersioned(t, s, 1, StateVersion)
				cp, err := s.LatestComplete()
				if err != nil || cp == nil || string(cp.States["γ#5"]) != "state" {
					t.Fatalf("LatestComplete = %v, %v", cp, err)
				}
			})
			t.Run("version 0", func(t *testing.T) {
				s := open(t)
				sealVersioned(t, s, 1, 0)
				refused(t, s, 0)
			})
			t.Run("newer build", func(t *testing.T) {
				s := open(t)
				sealVersioned(t, s, 1, StateVersion+1)
				refused(t, s, StateVersion+1)
			})
			t.Run("no fallback past it", func(t *testing.T) {
				s := open(t)
				sealVersioned(t, s, 1, StateVersion)
				sealVersioned(t, s, 2, 0)
				refused(t, s, 0)
			})
			t.Run("old delta parent", func(t *testing.T) {
				s := open(t)
				sealVersioned(t, s, 1, 0)
				w, err := s.Begin(2)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.(ChainWriter).PutStateUnchanged("γ#5", 1); err != nil {
					t.Fatal(err)
				}
				if err := w.Seal(); err != nil {
					t.Fatal(err)
				}
				refused(t, s, 0)
			})
		})
	}
}
