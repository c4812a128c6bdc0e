// Package ops exercises the snapshotclosure contract: the encode closure
// returned by SnapshotState runs off-barrier, so it may depend only on
// copies captured in the method body.
package ops

import "fmt"

type liveJoin struct {
	m map[int]string
}

// Bad: the closure reaches back into the receiver off-barrier.
func (j *liveJoin) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return func(dst []byte) ([]byte, error) {
		return fmt.Appendf(dst, "%v", j.m), nil // want `encode closure references the receiver`
	}, nil
}

type headerWindow struct {
	q     []int
	byKey map[string][]int
}

// Bad: a map/slice header assignment is not a copy — st shares the
// receiver's storage, and the named-closure indirection doesn't launder it.
func (w *headerWindow) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	st := w.q
	byKey := w.byKey
	encode := func(dst []byte) ([]byte, error) {
		dst = fmt.Appendf(dst, "%v", st)          // want `references state aliased from the receiver`
		return fmt.Appendf(dst, "%v", byKey), nil // want `references state aliased from the receiver`
	}
	return encode, nil
}

type pointerOp struct {
	count int
}

// Bad: a pointer into the receiver carries live state past the barrier
// even though the field itself is a scalar.
func (p *pointerOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	n := &p.count
	return func(dst []byte) ([]byte, error) {
		return fmt.Appendf(dst, "%d", *n), nil // want `references state aliased from the receiver`
	}, nil
}

type methodOp struct {
	q []int
}

func (m *methodOp) flush() {}

// Bad: calling any receiver method off-barrier is live-state access.
func (m *methodOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return func(dst []byte) ([]byte, error) {
		m.flush() // want `encode closure references the receiver`
		return dst, nil
	}, nil
}

type buffer struct{ items []int }

type arrayOp struct {
	rec    [2]*buffer
	counts [2]int
}

// Bad: an array field is copied by value, but its pointer elements, and
// the address of any element, still reach the receiver's storage.
func (j *arrayOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	r := j.rec[0]
	n := &j.counts[1]
	return func(dst []byte) ([]byte, error) {
		dst = fmt.Appendf(dst, "%v", r.items)  // want `references state aliased from the receiver`
		return fmt.Appendf(dst, "%d", *n), nil // want `references state aliased from the receiver`
	}, nil
}

// --- sanctioned patterns below: no diagnostics expected ---

type recycler struct{ spare *buffer }

type lease struct {
	home *recycler
	buf  *buffer
}

// lease hands out the kept buffer: a method call's result, so the
// capture helper contract applies.
func (r *recycler) lease() *lease { return &lease{home: r, buf: &buffer{}} }

func (l *lease) release() { l.home.spare, l.buf = l.buf, nil }

type leasingOp struct {
	q      []int
	counts [2]int
	snaps  recycler
}

// Good: array elements of scalar type are copies, and a leased buffer
// filled under the barrier is the closure's to encode and hand back.
func (o *leasingOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	n := o.counts[0]
	counts := o.counts
	l := o.snaps.lease()
	l.buf.items = append(l.buf.items, o.q...)
	return func(dst []byte) ([]byte, error) {
		defer l.release()
		return fmt.Appendf(dst, "%d %v %v", n, counts, l.buf.items), nil
	}, nil
}

type goodOp struct {
	q     []int
	byKey map[string][]int
	count int
	area  area
}

type area struct{ items []int }

// Items returns a copied view — the contract capture helpers satisfy.
func (a *area) Items() []int {
	out := make([]int, len(a.items))
	copy(out, a.items)
	return out
}

// Good: every value the closure uses is a copy made under the barrier.
func (g *goodOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	q := append([]int(nil), g.q...)
	byKey := make(map[string][]int, len(g.byKey))
	for k, v := range g.byKey {
		byKey[k] = append([]int(nil), v...)
	}
	n := g.count
	items := g.area.Items()
	return func(dst []byte) ([]byte, error) {
		for _, v := range [][]int{q, items} {
			dst = fmt.Appendf(dst, "%v", v)
		}
		return fmt.Appendf(dst, "%v %d", byKey, n), nil
	}, nil
}

type reviewedOp struct {
	frozen map[int]int
}

// Good: the escape hatch, with its mandatory reason.
func (r *reviewedOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return func(dst []byte) ([]byte, error) {
		//pipesvet:allow snapshotclosure fixture: frozen is write-once before Start and never mutated
		return fmt.Appendf(dst, "%v", r.frozen), nil
	}, nil
}
