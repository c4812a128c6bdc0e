package ft

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sync"
)

// Checkpoint is one sealed, complete checkpoint: per-source replay
// offsets and per-operator serialised state (the full encoding), keyed by
// node name.
type Checkpoint struct {
	ID      uint64
	Offsets map[string]int
	States  map[string][]byte
}

// CheckpointWriter stages one checkpoint. Entries may be added in any
// order; nothing is visible to readers until Seal. A writer that is
// abandoned without Seal leaves no complete checkpoint (a torn write —
// readers skip it). Byte slices are the caller's again once a method
// returns. Every operator's state is staged whole, so a sealed checkpoint
// is self-contained: no entry refers to another checkpoint.
type CheckpointWriter interface {
	PutOffset(source string, offset int) error
	PutState(op string, state []byte) error
	// Seal atomically and durably publishes the checkpoint as complete.
	Seal() error
}

// CheckpointStore persists checkpoints. Store is the implementation; the
// interface is the seam fault injection wraps (harness.TornStore).
type CheckpointStore interface {
	// Begin stages checkpoint id. A sealed checkpoint is never
	// overwritten (ErrSealed); unsealed debris under id is discarded.
	Begin(id uint64) (CheckpointWriter, error)
	// LatestComplete returns the newest sealed checkpoint whose every
	// entry verifies, or nil when the store is empty. Newer corrupt
	// checkpoints are skipped in favour of older intact ones — the
	// caller's fallback path; an error is returned only when sealed
	// checkpoints exist but none verifies (nothing intact to fall back
	// to), or when the newest readable one was sealed under another
	// StateVersion (ErrStateVersion: nothing older is tried, nothing is
	// restored).
	LatestComplete() (*Checkpoint, error)
	// Drop removes superseded checkpoints with ID at or below id —
	// retention management once a newer checkpoint is sealed.
	Drop(id uint64) error
	// LastID returns the highest ID sealed in the store, by this process
	// or one before it (0 when none). A writer numbers its checkpoints
	// above it.
	LastID() uint64
}

// ErrNoCheckpoint is returned by recovery helpers when the store holds no
// complete checkpoint.
var ErrNoCheckpoint = errors.New("ft: no complete checkpoint")

// ErrSealed is wrapped by Begin when the ID already names a sealed
// checkpoint: a sealed checkpoint is never overwritten.
var ErrSealed = errors.New("ft: checkpoint already sealed")

// StateVersion is stamped on every sealed checkpoint. State entries are
// matched to operators by name alone and decoded by whatever operator now
// bears that name, so a change to what operators hold, to how the
// optimizer numbers them, or to what a manifest must record, bumps it:
// the store then refuses a checkpoint sealed under another version
// instead of loading it into the wrong operator. History
// (FAULT_TOLERANCE.md §state version): 0 is every checkpoint sealed
// before the field existed; 1 — CQL plans carry source tuples, pairs and
// rows between operators and have no qualifier node; 2 — every chain link
// records the checksum of the full state it resolves to; 3 — state is
// written with the engine's value codec (internal/wire) instead of gob;
// 4 — an entry is a full state or an unchanged marker naming its origin,
// and byte deltas and chains are gone; 5 — every state entry is the full
// encoding, and no entry names another checkpoint; 6 — a group-by's
// pending output holds the tuples its query delivers, not []any group
// rows, and a grouped query's γ is numbered where its projection was;
// 7 — coalesce (δ), DSTREAM, RSTREAM and split save their state, which a
// version-6 store has no entries for; 8 — a multi-input operator saves
// one queue of arrivals per input and one watermark, where a version-7
// store holds pending results and one watermark per input.
const StateVersion = 8

// ErrStateVersion is wrapped by LatestComplete when a sealed checkpoint
// carries another StateVersion.
var ErrStateVersion = errors.New("ft: checkpoint state version mismatch")

const manifestName = "MANIFEST.json"

// Entry kinds of the manifest.
const (
	entryOffset = "offset"
	entryState  = "state" // full encoding
)

type manifestEntry struct {
	File string `json:"file"`
	Kind string `json:"kind"` // "offset" or "state"
	Name string `json:"name"` // node name
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"` // of the payload in File
	// Offset is inlined for offset entries (File empty).
	Offset int `json:"offset,omitempty"`
}

type manifest struct {
	ID uint64 `json:"id"`
	// StateVersion is absent (0) in manifests sealed before it existed.
	StateVersion int             `json:"state_version"`
	Entries      []manifestEntry `json:"entries"`
}

// backend is where a Store's bytes live: named payloads grouped under
// checkpoint IDs. It knows nothing of entry kinds or versions; the one
// structure it keeps is that a group is committed exactly when it holds a
// payload called manifestName, and that commit makes it appear atomically
// and durably, together with every payload put under it before.
type backend interface {
	// put stores one payload under id. data is the caller's on return.
	put(id uint64, name string, data []byte) error
	// get returns a payload (read-only), or an error matching
	// fs.ErrNotExist.
	get(id uint64, name string) ([]byte, error)
	// commit atomically and durably stores id's manifest.
	commit(id uint64, manifest []byte) error
	// ids lists the IDs present, committed or not, ascending.
	ids() ([]uint64, error)
	// remove deletes everything under id; an absent id is not an error.
	remove(id uint64) error
}

// Store is the CheckpointStore: it owns the manifest format, the
// newest-first fallback and retention, over a backend that only stores
// bytes — a directory (NewFileStore) or a map (NewMemStore).
//
// Sealing writes a manifest (entry list with sizes and checksums) through
// the backend's atomic commit. LatestComplete verifies every entry against
// the manifest, so a torn or corrupted write — crash mid-write, truncated
// payload, flipped bits — demotes the checkpoint to incomplete and
// recovery falls back to the previous one.
type Store struct {
	mu   sync.Mutex
	b    backend
	last uint64 // highest ID sealed: found at open, then by every Seal
}

// LastID implements CheckpointStore.
func (s *Store) LastID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

type writer struct {
	s    *Store
	m    manifest
	seq  int
	done bool
}

// Begin implements CheckpointStore.
func (s *Store) Begin(id uint64) (CheckpointWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.b.get(id, manifestName); err == nil {
		return nil, fmt.Errorf("%w: checkpoint %d", ErrSealed, id)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err := s.b.remove(id); err != nil {
		return nil, err
	}
	return &writer{s: s, m: manifest{ID: id, StateVersion: StateVersion}}, nil
}

func (w *writer) PutOffset(source string, offset int) error {
	w.m.Entries = append(w.m.Entries, manifestEntry{Kind: entryOffset, Name: source, Offset: offset})
	return nil
}

func (w *writer) PutState(op string, state []byte) error {
	w.seq++
	e := manifestEntry{Kind: entryState, Name: op, File: fmt.Sprintf("state-%d.bin", w.seq),
		Size: int64(len(state)), CRC: crc32.ChecksumIEEE(state)}
	w.s.mu.Lock()
	err := w.s.b.put(w.m.ID, e.File, state)
	w.s.mu.Unlock()
	if err != nil {
		return err
	}
	w.m.Entries = append(w.m.Entries, e)
	return nil
}

func (w *writer) Seal() error {
	if w.done {
		return fmt.Errorf("%w: checkpoint %d", ErrSealed, w.m.ID)
	}
	w.done = true
	data, err := json.Marshal(w.m)
	if err != nil {
		return err
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if err := w.s.b.commit(w.m.ID, data); err != nil {
		return err
	}
	w.s.last = max(w.s.last, w.m.ID)
	return nil
}

// LatestComplete implements CheckpointStore: newest ID first, the first
// checkpoint whose manifest exists and whose every entry verifies. IDs
// without a manifest (a writer in flight, debris of a failed round) are
// skipped silently; sealed-but-unloadable checkpoints are skipped in
// favour of older intact ones, and only when nothing loads at all does the
// corruption surface as an error.
func (s *Store) LatestComplete() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.b.ids()
	if err != nil {
		return nil, err
	}
	var firstErr error
	for i := len(ids) - 1; i >= 0; i-- {
		m, err := s.manifest(ids[i])
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		var cp *Checkpoint
		if err == nil {
			cp, err = s.load(m)
		}
		if err == nil {
			return cp, nil
		}
		if errors.Is(err, ErrStateVersion) {
			return nil, err // another build's store: no older fallback
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("ft: no intact checkpoint: %w", firstErr)
	}
	return nil, nil
}

// manifest parses id's manifest and refuses one sealed under another
// state version.
func (s *Store) manifest(id uint64) (*manifest, error) {
	data, err := s.b.get(id, manifestName)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.StateVersion != StateVersion {
		return nil, fmt.Errorf("%w: checkpoint %d was sealed under state version %d, this build reads version %d; its state cannot be restored — recover from the sources or with the build that wrote it",
			ErrStateVersion, id, m.StateVersion, StateVersion)
	}
	return &m, nil
}

// load verifies one sealed checkpoint and reads its state payloads; any
// missing payload, size mismatch, checksum failure or unknown entry kind
// is an error (the checkpoint is torn).
func (s *Store) load(m *manifest) (*Checkpoint, error) {
	cp := &Checkpoint{ID: m.ID, Offsets: map[string]int{}, States: map[string][]byte{}}
	for _, e := range m.Entries {
		switch e.Kind {
		case entryOffset:
			cp.Offsets[e.Name] = e.Offset
		case entryState:
			b, err := s.b.get(m.ID, e.File)
			if err != nil {
				return nil, err
			}
			if int64(len(b)) != e.Size || crc32.ChecksumIEEE(b) != e.CRC {
				return nil, fmt.Errorf("ft: checkpoint %d entry %s is torn", m.ID, e.Name)
			}
			cp.States[e.Name] = b
		default:
			return nil, fmt.Errorf("ft: checkpoint %d entry %q has unknown kind %q", m.ID, e.Name, e.Kind)
		}
	}
	return cp, nil
}

// Drop implements CheckpointStore. The scan is driven by the backend's
// listing (IDs need not be dense — failed rounds and earlier drops leave
// gaps); debris of failed rounds at or below id goes with it.
func (s *Store) Drop(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.b.ids()
	if err != nil {
		return err
	}
	for _, i := range ids {
		if i > id {
			break
		}
		if err := s.b.remove(i); err != nil {
			return err
		}
	}
	return nil
}
