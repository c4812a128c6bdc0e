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
// offsets and per-operator serialised state, keyed by node name. State
// entries are always the *full* reconstructed encoding — the store
// resolves base+delta chains internally, so readers never see chain
// plumbing.
type Checkpoint struct {
	ID      uint64
	Offsets map[string]int
	States  map[string][]byte
}

// CheckpointWriter stages one checkpoint. Entries may be added in any
// order; nothing is visible to readers until Seal. A writer that is
// abandoned without Seal leaves no complete checkpoint (a torn write —
// readers skip it). Byte slices are the caller's again once a method
// returns.
//
// An operator's state is staged in one of three forms: the full encoding
// (PutState), a MakeDelta blob against the same operator's entry in the
// sealed checkpoint parent (PutStateDelta), or a marker that it is
// byte-identical to the parent's (PutStateUnchanged). The chained forms
// also take the full encoding they stand for: its checksum is sealed with
// the link, so a reader can tell a link applied to the parent it was cut
// against from one applied to another checkpoint of the same ID.
type CheckpointWriter interface {
	PutOffset(source string, offset int) error
	PutState(op string, state []byte) error
	PutStateDelta(op string, parent uint64, delta, state []byte) error
	PutStateUnchanged(op string, parent uint64, state []byte) error
	// Seal atomically publishes the checkpoint as complete.
	Seal() error
}

// CheckpointStore persists checkpoints. Store is the implementation; the
// interface is the seam fault injection wraps (harness.TornStore).
type CheckpointStore interface {
	// Begin stages checkpoint id. A sealed checkpoint is never
	// overwritten (ErrSealed); unsealed debris under id is discarded.
	Begin(id uint64) (CheckpointWriter, error)
	// LatestComplete returns the newest sealed checkpoint whose every
	// entry (including its base+delta chain) verifies, or nil when the
	// store is empty. Newer corrupt checkpoints are skipped in favour of
	// older intact ones — the caller's fallback path; an error is
	// returned only when sealed checkpoints exist but none can be
	// reconstructed (a corrupt chain with nothing to fall back to), or
	// when the newest readable one was sealed under another StateVersion
	// (ErrStateVersion: nothing older is tried, nothing is restored).
	LatestComplete() (*Checkpoint, error)
	// Drop removes superseded checkpoints with ID at or below id —
	// retention management once a newer checkpoint is sealed. A
	// checkpoint referenced by a surviving checkpoint's delta chain is
	// retained regardless of its ID: dropping it would tear the chain.
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
// checkpoint: chains refer to their parents by ID, so a sealed ID is
// never reused.
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
// written with the engine's value codec (internal/wire) instead of gob.
const StateVersion = 3

// ErrStateVersion is wrapped by LatestComplete when a sealed checkpoint,
// or a link of its delta chain, carries another StateVersion.
var ErrStateVersion = errors.New("ft: checkpoint state version mismatch")

// maxChainDepth bounds base+delta chain resolution — a defence against a
// corrupt store with a reference cycle, far above any real chain (the
// Manager writes a full base every few rounds).
const maxChainDepth = 4096

const manifestName = "MANIFEST.json"

// Entry kinds of the manifest.
const (
	entryOffset    = "offset"
	entryState     = "state" // full encoding
	entryDelta     = "delta" // MakeDelta blob against the parent's entry
	entryUnchanged = "same"  // byte-identical to the parent's entry
)

type manifestEntry struct {
	File string `json:"file"`
	Kind string `json:"kind"` // "offset", "state", "delta" or "same"
	Name string `json:"name"` // node name
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"` // of the payload in File
	// Offset is inlined for offset entries (File empty).
	Offset int `json:"offset,omitempty"`
	// Parent is the checkpoint ID a delta/same entry resolves against,
	// StateCRC the checksum of the full state it must resolve to.
	Parent   uint64 `json:"parent,omitempty"`
	StateCRC uint32 `json:"state_crc32,omitempty"`
}

type manifest struct {
	ID uint64 `json:"id"`
	// StateVersion is absent (0) in manifests sealed before it existed.
	StateVersion int             `json:"state_version"`
	Entries      []manifestEntry `json:"entries"`
}

// state returns the state entry of op.
func (m *manifest) state(op string) (manifestEntry, bool) {
	for _, e := range m.Entries {
		if e.Name == op && e.Kind != entryOffset {
			return e, true
		}
	}
	return manifestEntry{}, false
}

// parent returns the checkpoint m's chained entries resolve against (0
// for a base). The entries of one round share one parent.
func (m *manifest) parent() uint64 {
	var p uint64
	for _, e := range m.Entries {
		if e.Kind == entryDelta || e.Kind == entryUnchanged {
			p = max(p, e.Parent)
		}
	}
	return p
}

// backend is where a Store's bytes live: named payloads grouped under
// checkpoint IDs. It knows nothing of entry kinds, chains or versions;
// the one structure it keeps is that a group is committed exactly when it
// holds a payload called manifestName, and that commit makes it appear
// atomically.
type backend interface {
	// put stores one payload under id. data is the caller's on return.
	put(id uint64, name string, data []byte) error
	// get returns a payload (read-only), or an error matching
	// fs.ErrNotExist.
	get(id uint64, name string) ([]byte, error)
	// commit atomically stores id's manifest.
	commit(id uint64, manifest []byte) error
	// ids lists the IDs present, committed or not, ascending.
	ids() ([]uint64, error)
	// remove deletes everything under id; an absent id is not an error.
	remove(id uint64) error
}

// Store is the CheckpointStore: it owns the manifest format, the
// newest-first fallback, chain resolution and retention, over a backend
// that only stores bytes — a directory (NewFileStore) or a map
// (NewMemStore).
//
// Sealing writes a manifest (entry list with sizes, checksums and chain
// parents) through the backend's atomic commit. LatestComplete verifies
// every entry, transitively down the chain, against the manifests, so a
// torn or corrupted write — crash mid-write, truncated payload, flipped
// bits, a missing or replaced chain parent — demotes the checkpoint to
// incomplete and recovery falls back to the previous one.
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

// putPayload stores one payload-carrying entry (full state or delta).
func (w *writer) putPayload(e manifestEntry, data []byte) error {
	w.seq++
	e.File = fmt.Sprintf("state-%d.bin", w.seq)
	e.Size = int64(len(data))
	e.CRC = crc32.ChecksumIEEE(data)
	w.s.mu.Lock()
	err := w.s.b.put(w.m.ID, e.File, data)
	w.s.mu.Unlock()
	if err != nil {
		return err
	}
	w.m.Entries = append(w.m.Entries, e)
	return nil
}

func (w *writer) PutState(op string, state []byte) error {
	return w.putPayload(manifestEntry{Kind: entryState, Name: op}, state)
}

func (w *writer) PutStateDelta(op string, parent uint64, delta, state []byte) error {
	return w.putPayload(manifestEntry{Kind: entryDelta, Name: op, Parent: parent, StateCRC: crc32.ChecksumIEEE(state)}, delta)
}

func (w *writer) PutStateUnchanged(op string, parent uint64, state []byte) error {
	w.m.Entries = append(w.m.Entries, manifestEntry{Kind: entryUnchanged, Name: op, Parent: parent, StateCRC: crc32.ChecksumIEEE(state)})
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
// checkpoint whose manifest exists and whose every entry — including its
// delta chain — verifies. IDs without a manifest (a writer in flight,
// debris of a failed round) are skipped silently; sealed-but-unloadable
// checkpoints are skipped in favour of older intact ones, and only when
// nothing loads at all does the corruption surface as an error.
func (s *Store) LatestComplete() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.b.ids()
	if err != nil {
		return nil, err
	}
	mans := map[uint64]*manifest{}
	var firstErr error
	for i := len(ids) - 1; i >= 0; i-- {
		m, err := s.manifest(ids[i], mans)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		var cp *Checkpoint
		if err == nil {
			cp, err = s.load(m, mans)
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
		return nil, fmt.Errorf("ft: no reconstructable checkpoint: %w", firstErr)
	}
	return nil, nil
}

// manifest parses id's manifest, caching in mans across one scan, and
// refuses one sealed under another state version.
func (s *Store) manifest(id uint64, mans map[uint64]*manifest) (*manifest, error) {
	if m, ok := mans[id]; ok {
		return m, nil
	}
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
	mans[id] = &m
	return &m, nil
}

// payload reads and verifies the payload of entry e of checkpoint id.
func (s *Store) payload(id uint64, e manifestEntry) ([]byte, error) {
	b, err := s.b.get(id, e.File)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != e.Size || crc32.ChecksumIEEE(b) != e.CRC {
		return nil, fmt.Errorf("ft: checkpoint %d entry %s is torn", id, e.Name)
	}
	return b, nil
}

// load verifies one sealed checkpoint and resolves its delta chains; any
// missing payload, size mismatch, checksum failure or broken chain link
// is an error (the checkpoint is torn).
func (s *Store) load(m *manifest, mans map[uint64]*manifest) (*Checkpoint, error) {
	cp := &Checkpoint{ID: m.ID, Offsets: map[string]int{}, States: map[string][]byte{}}
	for _, e := range m.Entries {
		if e.Kind == entryOffset {
			cp.Offsets[e.Name] = e.Offset
			continue
		}
		b, err := s.resolve(m.ID, e, mans, 0)
		if err != nil {
			return nil, err
		}
		cp.States[e.Name] = b
	}
	return cp, nil
}

// resolve reconstructs the full state entry e of checkpoint id stands for
// by walking its base+delta chain.
func (s *Store) resolve(id uint64, e manifestEntry, mans map[uint64]*manifest, depth int) ([]byte, error) {
	switch e.Kind {
	case entryState:
		return s.payload(id, e)
	case entryDelta, entryUnchanged:
	default:
		return nil, fmt.Errorf("ft: checkpoint %d entry %q has unknown kind %q", id, e.Name, e.Kind)
	}
	if depth >= maxChainDepth {
		return nil, fmt.Errorf("ft: checkpoint %d: chain for %q exceeds depth %d", id, e.Name, maxChainDepth)
	}
	if e.Parent >= id {
		return nil, fmt.Errorf("ft: checkpoint %d entry %q references non-ancestor %d", id, e.Name, e.Parent)
	}
	pm, err := s.manifest(e.Parent, mans)
	if err != nil {
		return nil, fmt.Errorf("ft: chain for %q: checkpoint %d: %w", e.Name, e.Parent, err)
	}
	pe, ok := pm.state(e.Name)
	if !ok {
		return nil, fmt.Errorf("ft: checkpoint %d has no state entry for %q", e.Parent, e.Name)
	}
	state, err := s.resolve(e.Parent, pe, mans, depth+1)
	if err != nil {
		return nil, err
	}
	if e.Kind == entryDelta {
		d, err := s.payload(id, e)
		if err != nil {
			return nil, err
		}
		if state, err = ApplyDelta(state, d); err != nil {
			return nil, err
		}
	}
	if crc32.ChecksumIEEE(state) != e.StateCRC {
		return nil, fmt.Errorf("ft: checkpoint %d entry %q does not resolve to the state it was cut from: checkpoint %d is not the parent it was written against", id, e.Name, e.Parent)
	}
	return state, nil
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
	protected := map[uint64]bool{}
	mans := map[uint64]*manifest{}
	for _, cur := range ids {
		if cur <= id {
			continue
		}
		// Walk the survivor's chain; an unreadable manifest protects
		// nothing (the checkpoint is torn and will be skipped by loads).
		for {
			m, err := s.manifest(cur, mans)
			if err != nil {
				break
			}
			cur = m.parent()
			if cur == 0 || protected[cur] {
				break
			}
			protected[cur] = true
		}
	}
	for _, i := range ids {
		if i <= id && !protected[i] {
			if err := s.b.remove(i); err != nil {
				return err
			}
		}
	}
	return nil
}
