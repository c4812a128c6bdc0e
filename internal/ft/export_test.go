package ft

// ManifestName is the payload that commits a checkpoint.
const ManifestName = manifestName

// The backend beneath a Store, for tests that forge what a crash, a bad
// disk or another build would have left there.

func (s *Store) RawPut(id uint64, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.put(id, name, data)
}

func (s *Store) RawGet(id uint64, name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.get(id, name)
}

func (s *Store) RawCommit(id uint64, manifest []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.commit(id, manifest)
}

func (s *Store) RawIDs() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.ids()
}

func (s *Store) RawRemove(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.remove(id)
}
