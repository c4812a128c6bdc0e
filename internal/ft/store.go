package ft

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Checkpoint is one sealed, complete checkpoint: per-source replay
// offsets and per-operator serialised state, keyed by node name. State
// entries are always the *full* reconstructed encoding — stores resolve
// base+delta chains internally, so readers never see chain plumbing.
type Checkpoint struct {
	ID      uint64
	Offsets map[string]int
	States  map[string][]byte
}

// CheckpointWriter stages one checkpoint. Entries may be added in any
// order; nothing is visible to readers until Seal. A writer that is
// abandoned without Seal leaves no complete checkpoint (a torn write —
// readers skip it).
type CheckpointWriter interface {
	PutOffset(source string, offset int) error
	PutState(op string, state []byte) error
	// Seal atomically publishes the checkpoint as complete.
	Seal() error
}

// ChainWriter is the incremental-checkpoint extension of
// CheckpointWriter: stores that support base+delta chains stage an
// operator's state as a binary delta against the same operator's entry
// in checkpoint parent (PutStateDelta), or as a marker that the state is
// byte-identical to the parent's (PutStateUnchanged). Readers resolve the
// chain transparently; the Manager falls back to full PutState entries
// when the writer does not implement this interface.
type ChainWriter interface {
	PutStateDelta(op string, parent uint64, delta []byte) error
	PutStateUnchanged(op string, parent uint64) error
}

// CheckpointStore persists checkpoints. Implementations must make Seal
// atomic: LatestComplete never observes a partially written checkpoint.
type CheckpointStore interface {
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
}

// ErrNoCheckpoint is returned by recovery helpers when the store holds no
// complete checkpoint.
var ErrNoCheckpoint = errors.New("ft: no complete checkpoint")

// StateVersion is stamped on every sealed checkpoint. State entries are
// matched to operators by name alone and decoded by whatever operator now
// bears that name, so a change to what operators hold, or to how the
// optimizer numbers them, must bump it: stores then refuse a checkpoint
// sealed under another version instead of loading it into the wrong
// operator. History (FAULT_TOLERANCE.md §state version): 0 is every
// checkpoint sealed before the field existed; 1 — CQL plans carry source
// tuples, pairs and rows between operators and have no qualifier node.
const StateVersion = 1

// ErrStateVersion is wrapped by LatestComplete when a sealed checkpoint,
// or a link of its delta chain, carries another StateVersion.
var ErrStateVersion = errors.New("ft: checkpoint state version mismatch")

// checkVersion refuses a sealed checkpoint of another state version.
func checkVersion(id uint64, sealedUnder int) error {
	if sealedUnder != StateVersion {
		return fmt.Errorf("%w: checkpoint %d was sealed under state version %d, this build reads version %d; its state cannot be restored — recover from the sources or with the build that wrote it",
			ErrStateVersion, id, sealedUnder, StateVersion)
	}
	return nil
}

// maxChainDepth bounds base+delta chain resolution — a defence against a
// corrupt store with a reference cycle, far above any real chain (the
// Manager writes a full base every few rounds).
const maxChainDepth = 4096

// Entry kinds shared by both stores' chain formats.
const (
	entryOffset    = "offset"
	entryState     = "state" // full encoding
	entryDelta     = "delta" // MakeDelta blob against the parent's entry
	entryUnchanged = "same"  // byte-identical to the parent's entry
)

// MemStore is the in-memory CheckpointStore: checkpoints survive a
// simulated crash (the graph is abandoned, the store object is kept) but
// not a process restart. It is the store of the fault-injection tests and
// mirrors FileStore's base+delta chain format so the stress suite
// exercises chain resolution without touching disk.
type MemStore struct {
	mu     sync.Mutex
	sealed map[uint64]*memCP
}

// memEntry is one staged state entry: a full encoding, a delta against
// the parent checkpoint's entry, or an unchanged marker.
type memEntry struct {
	kind   string
	parent uint64
	data   []byte
}

type memCP struct {
	id      uint64
	version int // StateVersion at Seal
	offsets map[string]int
	entries map[string]memEntry
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{sealed: map[uint64]*memCP{}} }

type memWriter struct {
	store *MemStore
	cp    *memCP
	done  bool
}

// Begin implements CheckpointStore.
func (s *MemStore) Begin(id uint64) (CheckpointWriter, error) {
	return &memWriter{store: s, cp: &memCP{id: id, offsets: map[string]int{}, entries: map[string]memEntry{}}}, nil
}

func (w *memWriter) PutOffset(source string, offset int) error {
	w.cp.offsets[source] = offset
	return nil
}

func (w *memWriter) PutState(op string, state []byte) error {
	w.cp.entries[op] = memEntry{kind: entryState, data: append([]byte(nil), state...)}
	return nil
}

// PutStateDelta implements ChainWriter.
func (w *memWriter) PutStateDelta(op string, parent uint64, delta []byte) error {
	w.cp.entries[op] = memEntry{kind: entryDelta, parent: parent, data: append([]byte(nil), delta...)}
	return nil
}

// PutStateUnchanged implements ChainWriter.
func (w *memWriter) PutStateUnchanged(op string, parent uint64) error {
	w.cp.entries[op] = memEntry{kind: entryUnchanged, parent: parent}
	return nil
}

func (w *memWriter) Seal() error {
	if w.done {
		return errors.New("ft: checkpoint already sealed")
	}
	w.done = true
	w.cp.version = StateVersion
	w.store.mu.Lock()
	w.store.sealed[w.cp.id] = w.cp
	w.store.mu.Unlock()
	return nil
}

// LatestComplete implements CheckpointStore.
func (s *MemStore) LatestComplete() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.sealed))
	for id := range s.sealed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var firstErr error
	for i := len(ids) - 1; i >= 0; i-- {
		cp, err := s.resolve(ids[i])
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

// resolve reconstructs one sealed checkpoint, following delta chains.
// Caller holds s.mu.
func (s *MemStore) resolve(id uint64) (*Checkpoint, error) {
	mc := s.sealed[id]
	if mc == nil {
		return nil, fmt.Errorf("ft: checkpoint %d not sealed", id)
	}
	if err := checkVersion(id, mc.version); err != nil {
		return nil, err
	}
	cp := &Checkpoint{ID: id, Offsets: map[string]int{}, States: map[string][]byte{}}
	for src, off := range mc.offsets {
		cp.Offsets[src] = off
	}
	for op := range mc.entries {
		b, err := s.resolveState(id, op, 0)
		if err != nil {
			return nil, err
		}
		cp.States[op] = b
	}
	return cp, nil
}

func (s *MemStore) resolveState(id uint64, op string, depth int) ([]byte, error) {
	if depth > maxChainDepth {
		return nil, fmt.Errorf("ft: checkpoint %d: chain for %q exceeds depth %d", id, op, maxChainDepth)
	}
	mc := s.sealed[id]
	if mc == nil {
		return nil, fmt.Errorf("ft: chain for %q references missing checkpoint %d", op, id)
	}
	if err := checkVersion(id, mc.version); err != nil {
		return nil, err
	}
	e, ok := mc.entries[op]
	if !ok {
		return nil, fmt.Errorf("ft: checkpoint %d has no entry for %q", id, op)
	}
	switch e.kind {
	case entryState:
		return e.data, nil
	case entryUnchanged:
		if e.parent >= id {
			return nil, fmt.Errorf("ft: checkpoint %d entry %q references non-ancestor %d", id, op, e.parent)
		}
		return s.resolveState(e.parent, op, depth+1)
	case entryDelta:
		if e.parent >= id {
			return nil, fmt.Errorf("ft: checkpoint %d entry %q references non-ancestor %d", id, op, e.parent)
		}
		base, err := s.resolveState(e.parent, op, depth+1)
		if err != nil {
			return nil, err
		}
		return ApplyDelta(base, e.data)
	}
	return nil, fmt.Errorf("ft: checkpoint %d entry %q has unknown kind %q", id, op, e.kind)
}

// Drop implements CheckpointStore: checkpoints at or below id are removed
// unless a surviving checkpoint's delta chain still references them.
func (s *MemStore) Drop(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	protected := map[uint64]bool{}
	for survivor, mc := range s.sealed {
		if survivor <= id {
			continue
		}
		cur := mc
		for cur != nil {
			next := uint64(0)
			for _, e := range cur.entries {
				if (e.kind == entryDelta || e.kind == entryUnchanged) && e.parent > next {
					next = e.parent
				}
			}
			if next == 0 || protected[next] {
				break
			}
			protected[next] = true
			cur = s.sealed[next]
		}
	}
	for k := range s.sealed {
		if k <= id && !protected[k] {
			delete(s.sealed, k)
		}
	}
	return nil
}

// Len returns the number of sealed checkpoints (for tests).
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed)
}

// FileStore is the durable CheckpointStore: one directory per checkpoint
// (`cp-<id>/`) holding one file per entry, sealed by writing a manifest
// (entry list with sizes and CRC32 checksums) to a temp file and renaming
// it into place — the atomic commit point. State entries may be full
// encodings, deltas against an earlier checkpoint's entry, or unchanged
// markers; loading resolves the chain. LatestComplete verifies every
// entry (transitively, down the chain) against the manifests, so torn or
// corrupted writes — crash mid-write, truncated file, flipped bits, a
// GC'd chain parent — demote the checkpoint to incomplete and recovery
// falls back to the previous one.
type FileStore struct {
	dir string
	mu  sync.Mutex
}

// NewFileStore returns a store rooted at dir, creating it if needed.
// Opening sweeps the debris of crashed runs: a `cp-<id>` directory
// without a sealed manifest (a writer abandoned before Seal) is removed
// so dead state files don't accumulate, and a stale manifest temp file
// next to a sealed manifest is deleted.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &FileStore{dir: dir}
	if err := s.sweepUnsealed(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepUnsealed removes unsealed checkpoint directories and stale
// manifest temp files left behind by a crash.
func (s *FileStore) sweepUnsealed() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), "cp-") {
			continue
		}
		cpDir := filepath.Join(s.dir, de.Name())
		if _, err := os.Stat(filepath.Join(cpDir, manifestName)); err != nil {
			if !os.IsNotExist(err) {
				return err
			}
			if err := os.RemoveAll(cpDir); err != nil {
				return err
			}
			continue
		}
		// Sealed: a leftover manifest temp file is junk from a crash
		// between write and rename of a *re-used* ID; remove it.
		tmp := filepath.Join(cpDir, manifestName+".tmp")
		if _, err := os.Stat(tmp); err == nil {
			if err := os.Remove(tmp); err != nil {
				return err
			}
		}
	}
	return nil
}

const manifestName = "MANIFEST.json"

type manifestEntry struct {
	File string `json:"file"`
	Kind string `json:"kind"` // "offset", "state", "delta" or "same"
	Name string `json:"name"` // node name
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"`
	// Offset is inlined for offset entries (File empty).
	Offset int `json:"offset,omitempty"`
	// Parent is the checkpoint ID a delta/same entry resolves against.
	Parent uint64 `json:"parent,omitempty"`
}

type manifest struct {
	ID uint64 `json:"id"`
	// StateVersion is absent (0) in manifests sealed before it existed.
	StateVersion int             `json:"state_version"`
	Entries      []manifestEntry `json:"entries"`
}

type fileWriter struct {
	store   *FileStore
	id      uint64
	dir     string
	entries []manifestEntry
	seq     int
	done    bool
}

// Begin implements CheckpointStore.
func (s *FileStore) Begin(id uint64) (CheckpointWriter, error) {
	dir := filepath.Join(s.dir, fmt.Sprintf("cp-%d", id))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &fileWriter{store: s, id: id, dir: dir}, nil
}

func (w *fileWriter) PutOffset(source string, offset int) error {
	w.entries = append(w.entries, manifestEntry{Kind: entryOffset, Name: source, Offset: offset})
	return nil
}

// putFile writes one payload-carrying entry (full state or delta).
func (w *fileWriter) putFile(kind, op string, parent uint64, data []byte) error {
	w.seq++
	file := fmt.Sprintf("state-%d.gob", w.seq)
	if err := os.WriteFile(filepath.Join(w.dir, file), data, 0o644); err != nil {
		return err
	}
	w.entries = append(w.entries, manifestEntry{
		File:   file,
		Kind:   kind,
		Name:   op,
		Size:   int64(len(data)),
		CRC:    crc32.ChecksumIEEE(data),
		Parent: parent,
	})
	return nil
}

func (w *fileWriter) PutState(op string, state []byte) error {
	return w.putFile(entryState, op, 0, state)
}

// PutStateDelta implements ChainWriter.
func (w *fileWriter) PutStateDelta(op string, parent uint64, delta []byte) error {
	return w.putFile(entryDelta, op, parent, delta)
}

// PutStateUnchanged implements ChainWriter.
func (w *fileWriter) PutStateUnchanged(op string, parent uint64) error {
	w.entries = append(w.entries, manifestEntry{Kind: entryUnchanged, Name: op, Parent: parent})
	return nil
}

func (w *fileWriter) Seal() error {
	if w.done {
		return errors.New("ft: checkpoint already sealed")
	}
	w.done = true
	data, err := json.Marshal(manifest{ID: w.id, StateVersion: StateVersion, Entries: w.entries})
	if err != nil {
		return err
	}
	tmp := filepath.Join(w.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(w.dir, manifestName))
}

// LatestComplete implements CheckpointStore: scans checkpoint directories
// highest ID first and returns the first one whose manifest exists and
// whose every entry — including its delta chain — verifies. Directories
// without a manifest (a writer in flight, or pre-sweep crash debris) are
// skipped silently; sealed-but-unloadable checkpoints are skipped in
// favour of older intact ones, and only when nothing loads at all does
// the corruption surface as an error.
func (s *FileStore) LatestComplete() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	var firstErr error
	for i := len(ids) - 1; i >= 0; i-- {
		if !s.sealedAt(ids[i]) {
			continue
		}
		cp, err := s.load(ids[i])
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

// sealedAt reports whether cp-id has a sealed manifest. Caller holds s.mu.
func (s *FileStore) sealedAt(id uint64) bool {
	_, err := os.Stat(filepath.Join(s.dir, fmt.Sprintf("cp-%d", id), manifestName))
	return err == nil
}

func (s *FileStore) ids() ([]uint64, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), "cp-") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(de.Name(), "cp-"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// readManifest parses cp-id's manifest (caching in mans across one load).
func (s *FileStore) readManifest(id uint64, mans map[uint64]*manifest) (*manifest, error) {
	if m, ok := mans[id]; ok {
		return m, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("cp-%d", id), manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if err := checkVersion(id, m.StateVersion); err != nil {
		return nil, err
	}
	mans[id] = &m
	return &m, nil
}

// readEntryFile reads and verifies one payload file of cp-id.
func (s *FileStore) readEntryFile(id uint64, e manifestEntry) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("cp-%d", id), e.File))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != e.Size || crc32.ChecksumIEEE(b) != e.CRC {
		return nil, fmt.Errorf("ft: checkpoint %d entry %s is torn", id, e.Name)
	}
	return b, nil
}

// load reads and verifies one checkpoint, resolving delta chains; any
// missing file, size mismatch, checksum failure or broken chain link is
// an error (the checkpoint is torn).
func (s *FileStore) load(id uint64) (*Checkpoint, error) {
	mans := map[uint64]*manifest{}
	m, err := s.readManifest(id, mans)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{ID: m.ID, Offsets: map[string]int{}, States: map[string][]byte{}}
	for _, e := range m.Entries {
		switch e.Kind {
		case entryOffset:
			cp.Offsets[e.Name] = e.Offset
		case entryState, entryDelta, entryUnchanged:
			b, err := s.resolveState(id, e.Name, mans, 0)
			if err != nil {
				return nil, err
			}
			cp.States[e.Name] = b
		default:
			return nil, fmt.Errorf("ft: checkpoint %d has unknown entry kind %q", id, e.Kind)
		}
	}
	return cp, nil
}

// resolveState reconstructs one operator's full state at checkpoint id by
// walking its base+delta chain.
func (s *FileStore) resolveState(id uint64, op string, mans map[uint64]*manifest, depth int) ([]byte, error) {
	if depth > maxChainDepth {
		return nil, fmt.Errorf("ft: checkpoint %d: chain for %q exceeds depth %d", id, op, maxChainDepth)
	}
	m, err := s.readManifest(id, mans)
	if err != nil {
		return nil, fmt.Errorf("ft: chain for %q: checkpoint %d: %w", op, id, err)
	}
	for _, e := range m.Entries {
		if e.Name != op || e.Kind == entryOffset {
			continue
		}
		switch e.Kind {
		case entryState:
			return s.readEntryFile(id, e)
		case entryUnchanged:
			if e.Parent >= id {
				return nil, fmt.Errorf("ft: checkpoint %d entry %q references non-ancestor %d", id, op, e.Parent)
			}
			return s.resolveState(e.Parent, op, mans, depth+1)
		case entryDelta:
			if e.Parent >= id {
				return nil, fmt.Errorf("ft: checkpoint %d entry %q references non-ancestor %d", id, op, e.Parent)
			}
			d, err := s.readEntryFile(id, e)
			if err != nil {
				return nil, err
			}
			base, err := s.resolveState(e.Parent, op, mans, depth+1)
			if err != nil {
				return nil, err
			}
			return ApplyDelta(base, d)
		}
	}
	return nil, fmt.Errorf("ft: checkpoint %d has no state entry for %q", id, op)
}

// Drop implements CheckpointStore: the scan is driven by the directory
// listing (IDs need not be dense — torn rounds and earlier drops leave
// gaps), and checkpoints still referenced by a surviving checkpoint's
// delta chain are retained regardless of their ID.
func (s *FileStore) Drop(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.ids()
	if err != nil {
		return err
	}
	protected := map[uint64]bool{}
	mans := map[uint64]*manifest{}
	for _, i := range ids {
		if i <= id || !s.sealedAt(i) {
			continue
		}
		// Walk the survivor's chain; an unreadable manifest protects
		// nothing (the checkpoint is torn and will be skipped by loads).
		cur := i
		for {
			m, err := s.readManifest(cur, mans)
			if err != nil {
				break
			}
			next := uint64(0)
			for _, e := range m.Entries {
				if (e.Kind == entryDelta || e.Kind == entryUnchanged) && e.Parent > next {
					next = e.Parent
				}
			}
			if next == 0 || protected[next] {
				break
			}
			protected[next] = true
			cur = next
		}
	}
	for _, i := range ids {
		if i <= id && !protected[i] {
			if err := os.RemoveAll(filepath.Join(s.dir, fmt.Sprintf("cp-%d", i))); err != nil {
				return err
			}
		}
	}
	return nil
}
