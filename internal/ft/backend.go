package ft

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// dirBackend keeps one directory per checkpoint (`cp-<id>/`) under its
// root, one file per payload. commit writes the manifest to a temp file
// and renames it into place — the atomic commit point. Every payload and
// the manifest temp file are synced before the rename, the `cp-<id>`
// directory after it, and the root whenever a `cp-<id>` directory is
// created, so a manifest that survives a power loss names payloads that
// survived it too.
type dirBackend string

// NewFileStore returns the durable store rooted at dir, creating it if
// needed. Opening sweeps the debris of crashed runs: a `cp-<id>`
// directory without a sealed manifest (a writer abandoned before Seal)
// is removed so dead state files don't accumulate, and a stale manifest
// temp file next to a sealed manifest is deleted.
func NewFileStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := dirBackend(dir)
	last, err := d.sweepUnsealed()
	if err != nil {
		return nil, err
	}
	return &Store{b: d, last: last}, nil
}

func (d dirBackend) dir(id uint64) string {
	return filepath.Join(string(d), "cp-"+strconv.FormatUint(id, 10))
}

func (d dirBackend) path(id uint64, name string) string {
	return filepath.Join(d.dir(id), name)
}

// sweepUnsealed removes unsealed checkpoint directories and stale
// manifest temp files left behind by a crash, and returns the highest
// sealed ID it leaves.
func (d dirBackend) sweepUnsealed() (last uint64, err error) {
	ids, err := d.ids()
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		if _, err := os.Stat(d.path(id, manifestName)); err != nil {
			if !os.IsNotExist(err) {
				return 0, err
			}
			if err := d.remove(id); err != nil {
				return 0, err
			}
			continue
		}
		// Sealed: a leftover manifest temp file is junk; remove it.
		if err := os.Remove(d.path(id, manifestName+".tmp")); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		last = id
	}
	return last, nil
}

// put writes one payload and syncs it.
func (d dirBackend) put(id uint64, name string, data []byte) error {
	switch err := os.Mkdir(d.dir(id), 0o755); {
	case err == nil:
		// A new cp-<id> entry in the root.
		if err := syncDir(string(d)); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrExist):
		return err
	}
	f, err := os.OpenFile(d.path(id, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d dirBackend) get(id uint64, name string) ([]byte, error) {
	return os.ReadFile(d.path(id, name))
}

func (d dirBackend) commit(id uint64, manifest []byte) error {
	if err := d.put(id, manifestName+".tmp", manifest); err != nil {
		return err
	}
	if err := os.Rename(d.path(id, manifestName+".tmp"), d.path(id, manifestName)); err != nil {
		return err
	}
	return syncDir(d.dir(id))
}

// syncDir makes the entries of directory dir durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d dirBackend) ids() ([]uint64, error) {
	des, err := os.ReadDir(string(d))
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
	slices.Sort(ids)
	return ids, nil
}

func (d dirBackend) remove(id uint64) error {
	return os.RemoveAll(d.dir(id))
}

// memBackend is the same layout in a map: checkpoints survive a simulated
// crash (the graph is abandoned, the store object is kept) but not a
// process restart. Payloads are copied in: the caller reuses its buffers.
type memBackend map[uint64]map[string][]byte

// NewMemStore returns an empty in-memory store — the store of tests,
// experiments and a facade configured with an interval but no directory.
func NewMemStore() *Store { return &Store{b: memBackend{}} }

func (m memBackend) put(id uint64, name string, data []byte) error {
	if m[id] == nil {
		m[id] = map[string][]byte{}
	}
	m[id][name] = append([]byte(nil), data...)
	return nil
}

func (m memBackend) get(id uint64, name string) ([]byte, error) {
	b, ok := m[id][name]
	if !ok {
		return nil, fmt.Errorf("ft: checkpoint %d: %s: %w", id, name, fs.ErrNotExist)
	}
	return b, nil
}

func (m memBackend) commit(id uint64, manifest []byte) error {
	return m.put(id, manifestName, manifest)
}

func (m memBackend) ids() ([]uint64, error) {
	return slices.Sorted(maps.Keys(m)), nil
}

func (m memBackend) remove(id uint64) error {
	delete(m, id)
	return nil
}
