package ops

import "pipes/internal/temporal"

// Union merges any number of input streams into one (multiset union per
// snapshot). Inputs are individually ordered by Start; the ordered core's
// input merge restores the global order, so Union forwards each element
// as the merge applies it.
type Union struct{ ordered }

// NewUnion returns a union over `inputs` streams (inputs >= 2).
func NewUnion(name string, inputs int) *Union {
	if inputs < 2 {
		panic("ops: union needs at least two inputs")
	}
	u := &Union{}
	u.init(name, inputs, u.processOne, nil)
	return u
}

// processOne is the per-element body, under ProcMu.
func (u *Union) processOne(_ int, e temporal.Element) { u.Emit(e) }

// Pending returns the number of queued (not yet applicable) elements —
// exposed for memory accounting and tests.
func (u *Union) Pending() int {
	u.ProcMu.Lock()
	defer u.ProcMu.Unlock()
	return u.buffered()
}
