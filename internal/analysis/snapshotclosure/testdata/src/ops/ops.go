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

// capture is a state part's slot in a round's image; encoder writes it.
type capture struct{ n int }

type encoder func(c *capture, dst []byte) ([]byte, error)

type liveTable struct{ m map[int]int }

// Bad: a part's encoder runs off-barrier too, and this one reads the
// live map through the receiver.
func (t *liveTable) capture(c *capture) encoder {
	return func(c *capture, dst []byte) ([]byte, error) {
		return fmt.Appendf(dst, "%v", t.m), nil // want `encode closure references the receiver`
	}
}

type aliasTable struct{ m map[int]int }

// Bad: the local shares the receiver's map.
func (t aliasTable) capture(c *capture) encoder {
	m := t.m
	enc := func(c *capture, dst []byte) ([]byte, error) {
		return fmt.Appendf(dst, "%v", m), nil // want `references state aliased from the receiver`
	}
	return enc
}

type boundTable struct{ m map[int]int }

func (t *boundTable) encode(c *capture, dst []byte) ([]byte, error) {
	return fmt.Appendf(dst, "%v", t.m), nil
}

// Bad: a method value carries the receiver to the writer.
func (t *boundTable) capture(c *capture) encoder {
	return t.encode // want `encode closure references the receiver`
}

// --- sanctioned patterns below: no diagnostics expected ---

type countTable struct{ m map[int]int }

// Good: the part copies what it needs into its slot under the barrier
// and returns a package-level encoder, which reaches only the slot.
func (t *countTable) capture(c *capture) encoder {
	c.n = len(t.m)
	return encodeCount
}

func encodeCount(c *capture, dst []byte) ([]byte, error) { return fmt.Appendf(dst, "%d", c.n), nil }

type sizeTable struct{ m map[int]int }

// Good: a closure over a scalar copy made under the barrier.
func (t sizeTable) capture(c *capture) encoder {
	n := len(t.m)
	return func(c *capture, dst []byte) ([]byte, error) { return fmt.Appendf(dst, "%d %d", n, c.n), nil }
}

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
