package ops

import (
	"fmt"

	"pipes/internal/sweeparea"
	"pipes/internal/temporal"
)

// MJoin is the symmetric multiway join [Viglas et al.]: n input streams
// joined on a common key in a single operator instead of a tree of binary
// joins. Each arriving element probes every other input's SweepArea; a
// result is emitted exactly once — when its last constituent arrives — as
// a []any of the matched values ordered by input index, valid during the
// intersection of all constituent intervals. Experiment E6 compares MJoin
// against the binary join tree.
type MJoin struct {
	ordered
	key   KeyFunc
	areas []*sweeparea.Hash
	// partial is the cross product's scratch row, one slot per input,
	// reused by every probe; a slot is cleared once its expansion ends.
	// ProcMu.
	partial []any
}

// NewMJoin returns an n-way equi-join on key, n >= 2.
func NewMJoin(name string, inputs int, key KeyFunc) *MJoin {
	if inputs < 2 {
		panic("ops: mjoin needs at least two inputs")
	}
	if key == nil {
		panic("ops: mjoin requires a key function")
	}
	m := &MJoin{key: key, areas: make([]*sweeparea.Hash, inputs), partial: make([]any, inputs)}
	k := sweeparea.KeyFunc(func(v any) any { return key(v) })
	ps := []part{arity(inputs)}
	for i := range m.areas {
		m.areas[i] = sweeparea.NewHash(k, k)
		ps = append(ps, area{m.areas[i]})
	}
	m.init(name, inputs, m.processOne, nil, ps...)
	return m
}

// processOne is the per-element body, under ProcMu: the core's merge
// applies inputs in Start order, so each result starts at its probe's
// Start and leaves at once.
func (m *MJoin) processOne(input int, e temporal.Element) {
	for i, a := range m.areas {
		if i != input {
			a.Reorganize(e.Start)
		}
	}

	// Build the cross product over the other inputs' matching entries,
	// intersecting validity as we go.
	m.partial[input] = e.Value
	m.expand(e, input, 0, e.Interval)
	m.partial[input] = nil

	m.areas[input].Insert(e)
}

func (m *MJoin) expand(probe temporal.Element, origin, i int, iv temporal.Interval) {
	if i == len(m.areas) {
		tuple := make([]any, len(m.partial))
		copy(tuple, m.partial)
		m.Emit(temporal.Derive(tuple, iv, probe))
		return
	}
	if i == origin {
		m.expand(probe, origin, i+1, iv)
		return
	}
	m.areas[i].Probe(probe, func(s temporal.Element) {
		next, ok := iv.Intersect(s.Interval)
		if !ok {
			return
		}
		m.partial[i] = s.Value
		m.expand(probe, origin, i+1, next)
		m.partial[i] = nil
	})
}

// StateSize returns total stored entries across all areas.
func (m *MJoin) StateSize() int {
	m.ProcMu.Lock()
	defer m.ProcMu.Unlock()
	n := 0
	for _, a := range m.areas {
		n += a.Len()
	}
	return n
}

func (m *MJoin) String() string { return fmt.Sprintf("%s[mjoin/%d]", m.Name(), len(m.areas)) }
