package ft

import "fmt"

// RestoreStates applies a checkpoint's operator snapshots to a freshly
// rebuilt graph: loaders maps operator name (as registered during the
// checkpointed run — the optimizer's deterministic names, or explicit
// ones) to the new operator instance. Every state entry must find its
// loader; loaders without a state entry are left empty (an operator that
// held no state when the checkpoint was cut has no entry). cp.States
// holds each operator's full state image.
func RestoreStates(cp *Checkpoint, loaders map[string]StateLoader) error {
	if cp == nil {
		return ErrNoCheckpoint
	}
	for name, state := range cp.States {
		l, ok := loaders[name]
		if !ok {
			return fmt.Errorf("ft: checkpoint %d has state for unknown operator %q", cp.ID, name)
		}
		if err := l.LoadState(state); err != nil {
			return fmt.Errorf("ft: restoring %q from checkpoint %d: %w", name, cp.ID, err)
		}
	}
	return nil
}

// Offset returns the replay offset recorded for the named source (0 when
// the checkpoint predates the source — replay everything).
func (cp *Checkpoint) Offset(source string) int {
	if cp == nil {
		return 0
	}
	return cp.Offsets[source]
}

// Restore applies cp's operator snapshots to the operators registered
// with this manager — the facade-level recovery path: rebuild the graph,
// re-register every participant, Restore, then replay each source from
// cp's recorded offset. Restore starts each registered source's count at
// that offset, so the rounds of the recovered run record absolute
// offsets too. Each registered saver must also implement StateLoader
// (every ops operator does).
func (m *Manager) Restore(cp *Checkpoint) error {
	loaders := make(map[string]StateLoader, len(m.savers))
	for name, s := range m.savers {
		l, ok := s.(StateLoader)
		if !ok {
			return fmt.Errorf("ft: registered operator %q cannot load state", name)
		}
		loaders[name] = l
	}
	if err := RestoreStates(cp, loaders); err != nil {
		return err
	}
	for _, cs := range m.sources {
		cs.resumeAt(cp.Offset(cs.Name()))
	}
	return nil
}
