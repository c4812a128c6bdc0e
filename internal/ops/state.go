// Checkpoint state serialisation for the stateful operators. Each
// operator exposes SnapshotState/LoadState (the structural contract
// internal/ft declares as StateSaver/StateLoader — declared there, not
// here, so ops stays free of an ft import) encoding exactly the
// information a rebuilt operator needs to continue from a barrier cut:
//
//   - SnapshotState is the copy-on-write capture: invoked by the barrier
//     save hook under ProcMu, it copies the live collections — flat slice
//     copies, no canonical ordering, no encoding — and returns a closure
//     that appends the captured copies to a buffer later, on the
//     checkpoint writer's goroutine. The closure reads only its captures
//     and the immutable element values (the engine's purity contract), so
//     it runs safely concurrent with post-barrier processing; sorting and
//     encoding both move off the barrier stall. A capture allocates O(1)
//     per operator: GroupBy and PartitionedWindow copy every live element
//     into one shared slice and keep one (key, bounds) record per group
//     or partition.
//   - Each operator appends its fields in one fixed order with the state
//     codec (internal/wire); values and keys carry the codec's tags.
//     Map-derived collections are written in one canonical order (keyCmp,
//     sortByKey), which compares typed keys by value and renders a key
//     only when its kind is outside the typed set — once per key per
//     sort, never inside a comparator.
//   - LoadState runs on a freshly constructed, not-yet-started operator.
//     Corrupt state is an error, never a panic, and so are bytes left over
//     after the operator's fields.
//   - Trace slots are dropped: element traces are diagnostic context of
//     the run that produced them and do not survive a crash (restored
//     elements carry an explicit nil trace).
//   - Auxiliary structures derivable from the primary state (group
//     expiry events, coalesce end events, the holdback heap) are rebuilt
//     rather than serialised; the difference/intersect expiry heap is the one
//     exception — its entries cannot be recovered from the per-key
//     counters — and is serialised verbatim.
//   - Input-done flags are NOT saved: recovery replays every source, so
//     end-of-stream is re-signalled (or not) by the replayed inputs
//     themselves.
package ops

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"pipes/internal/temporal"
	"pipes/internal/wire"
	"pipes/internal/xds"
)

func init() {
	// The engine's values that travel inside checkpointed state: join
	// pairs, group results and the key of an ungrouped aggregation.
	wire.Register(wire.TagPair, func(dst []byte, p Pair) ([]byte, error) { return appendTwo(dst, p.Left, p.Right) },
		func(d *wire.Decoder) Pair { return Pair{Left: d.Value(), Right: d.Value()} })
	wire.Register(wire.TagGroupResult, func(dst []byte, r GroupResult) ([]byte, error) { return appendTwo(dst, r.Key, r.Agg) },
		func(d *wire.Decoder) GroupResult { return GroupResult{Key: d.Value(), Agg: d.Value()} })
	wire.Register(wire.TagGlobalGroup, func(dst []byte, _ globalGroup) ([]byte, error) { return dst, nil },
		func(*wire.Decoder) globalGroup { return globalGroup{} })
}

// appendTwo appends two values: the fields of a Pair or a GroupResult.
func appendTwo(dst []byte, a, b any) ([]byte, error) {
	dst, err := wire.AppendValue(dst, a)
	if err != nil {
		return dst, err
	}
	return wire.AppendValue(dst, b)
}

// canonKey renders a value for canonical checkpoint ordering where no
// typed comparison applies: keys outside keyCmp's typed set and the
// values that tie a sweep area's equal intervals. It is never called from
// a comparator — sortRendered computes it once per element before
// sorting, so a sort of n elements renders at most n times, not n log n.
func canonKey(k any) string { return fmt.Sprintf("%T|%v", k, k) }

// rankOther is keyRank's rank of every kind outside the typed set.
const rankOther = 7

// keyRank ranks a key's kind for keyCmp: nil < bool < int < int64 <
// uint64 < float64 < string < any other kind. The typed kinds are every
// kind cql.Key produces, its uint64 NaN sentinel and "\x00"-rendered
// string form included.
func keyRank(k any) int {
	switch k.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int:
		return 2
	case int64:
		return 3
	case uint64:
		return 4
	case float64:
		return 5
	case string:
		return 6
	}
	return rankOther
}

// keyCmp is the canonical order of map keys. Checkpoint bytes must be a
// pure function of the operator's logical state — the
// byte-identical-snapshot guarantee the frame-size invariance harness
// asserts — so every map-derived collection is sorted by key before
// encoding instead of leaking Go's randomised map iteration order. Keys
// compare by kind (keyRank), then by value. Two keys of kinds outside the
// typed set tie here; sortByKey breaks that tie by rendering.
func keyCmp(a, b any) int {
	if ra, rb := keyRank(a), keyRank(b); ra != rb {
		return cmp.Compare(ra, rb)
	}
	switch x := a.(type) {
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	case int:
		return cmp.Compare(x, b.(int))
	case int64:
		return cmp.Compare(x, b.(int64))
	case uint64:
		return cmp.Compare(x, b.(uint64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return strings.Compare(x, b.(string))
	}
	return 0
}

// sortByKey sorts s into canonical key order: keyCmp, which ranks keys
// outside the typed set last, then that tail by rendering.
func sortByKey[T any](s []T, key func(T) any) {
	slices.SortFunc(s, func(a, b T) int { return keyCmp(key(a), key(b)) })
	i := len(s)
	for i > 0 && keyRank(key(s[i-1])) == rankOther {
		i--
	}
	if len(s)-i > 1 {
		sortRendered(s[i:], func(v T) string { return canonKey(key(v)) })
	}
}

// rendering pairs an element with its canonKey rendering for sortRendered.
type rendering[T any] struct {
	r string
	v T
}

// sortRendered orders s by a rendering of each element, computed once per
// element before the sort.
func sortRendered[T any](s []T, render func(T) string) {
	rs := make([]rendering[T], len(s))
	for i, v := range s {
		rs[i] = rendering[T]{r: render(v), v: v}
	}
	slices.SortFunc(rs, func(a, b rendering[T]) int { return strings.Compare(a.r, b.r) })
	for i := range rs {
		s[i] = rs[i].v
	}
}

// sortWire canonically orders a multiset of elements whose source order
// is not semantically meaningful (sweep-area contents): by interval, then
// — only within a run of equal intervals, which [NOW] windows produce all
// the time — by the values' renderings.
func sortWire(es []temporal.Element) {
	slices.SortFunc(es, func(a, b temporal.Element) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.End, b.End)
	})
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j].Interval == es[i].Interval {
			j++
		}
		if j-i > 1 {
			sortRendered(es[i:j], func(e temporal.Element) string { return canonKey(e.Value) })
		}
		i = j
	}
}

// appendElems appends a count and the elements.
func appendElems(dst []byte, es []temporal.Element) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		var err error
		if dst, err = wire.AppendElement(dst, e); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// readElems reads what appendElems wrote into scratch[:0].
func readElems(d *wire.Decoder, scratch []temporal.Element) []temporal.Element {
	es := scratch[:0]
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		es = append(es, d.Element())
	}
	if d.Err() != nil {
		return es[:0]
	}
	return es
}

// loadState decodes one operator's state with load and requires every
// byte to be consumed. Corrupt state can decode to a value of a shape the
// operator cannot take — an unhashable key for one of its maps, a value
// its key function rejects — and the panic that causes is reported as an
// error like any other corruption.
func loadState(state []byte, load func(d *wire.Decoder)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ops: state does not fit the operator: %v", r)
		}
	}()
	d := wire.NewDecoder(state)
	load(d)
	return d.Finish()
}

// orderBufferCapture is the copy-on-write capture of the ordered core's
// buffer: plain slice copies taken under ProcMu (xds.Heap.Items returns
// its backing array, so the capture must copy). Its encoding is the
// pending (unreleased) results and the per-input watermarks; done inputs
// are re-established by the replayed inputs, and the holdback heap is
// rebuilt by the operator that owns it.
type orderBufferCapture struct {
	pending []temporal.Element
	wm      []temporal.Time
}

func (c *ordered) capture() orderBufferCapture {
	return orderBufferCapture{
		pending: append([]temporal.Element(nil), c.out.Items()...),
		wm:      append([]temporal.Time(nil), c.wm...),
	}
}

func (c orderBufferCapture) append(dst []byte) ([]byte, error) {
	dst, err := appendElems(dst, c.pending)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.wm)))
	for _, t := range c.wm {
		dst = binary.AppendVarint(dst, int64(t))
	}
	return dst, nil
}

func (c *ordered) load(d *wire.Decoder) {
	for _, e := range readElems(d, nil) {
		c.out.Push(e)
	}
	if n := d.Count(); n != len(c.wm) {
		d.Fail(fmt.Errorf("ops: state has %d watermarks, the operator %d inputs", n, len(c.wm)))
		return
	}
	for i := range c.wm {
		c.wm[i] = temporal.Time(d.Varint())
	}
}

// SnapshotState implements the ft.StateSaver contract: both sweep areas
// (SweepArea.Items already returns a fresh slice), then the pending
// output. Area contents are written in canonical order — area semantics
// are insertion-order independent — sorted in the closure, off the stall.
func (j *Join) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	a0, a1 := j.areas[0].Items(), j.areas[1].Items()
	out := j.capture()
	return func(dst []byte) ([]byte, error) {
		for _, a := range [2][]temporal.Element{a0, a1} {
			sortWire(a)
			var err error
			if dst, err = appendElems(dst, a); err != nil {
				return dst, err
			}
		}
		return out.append(dst)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (j *Join) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		var es []temporal.Element
		for _, area := range j.areas {
			es = readElems(d, es)
			for _, e := range es {
				area.Insert(e)
			}
		}
		j.load(d)
	})
}

// groupCapture is one live group's record in a flat capture: its key,
// open-span left boundary and the bounds of its live elements in the
// capture's shared element slice.
type groupCapture struct {
	key      any
	lb       temporal.Time
	off, end int
}

// SnapshotState implements the ft.StateSaver contract. Under the barrier
// it copies every group's live elements into one slice. The closure
// writes the groups in key order, each as its key, open-span left
// boundary and live element multiset, then the pending output. The
// aggregate is rebuilt on load by re-inserting the live elements (for
// invertible aggregates every expired removal has already been applied,
// so the live multiset reproduces the aggregate exactly). The multisets
// are canonically sorted in the closure (they are reloaded by
// re-insertion, so their order is free) — that both moves the sort off the
// barrier and gives consecutive rounds byte-stable encodings for the delta
// chain, where raw heap layout would shuffle unchanged groups.
func (g *GroupBy) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	n := 0
	for _, grp := range g.groups {
		n += grp.active.Len()
	}
	caps := make([]groupCapture, 0, len(g.groups))
	elems := make([]temporal.Element, 0, n)
	for k, grp := range g.groups {
		off := len(elems)
		elems = append(elems, grp.active.Items()...)
		caps = append(caps, groupCapture{key: k, lb: grp.lb, off: off, end: len(elems)})
	}
	out := g.capture()
	return func(dst []byte) ([]byte, error) {
		sortByKey(caps, func(c groupCapture) any { return c.key })
		dst = binary.AppendUvarint(dst, uint64(len(caps)))
		for _, c := range caps {
			active := elems[c.off:c.end]
			sortWire(active)
			var err error
			if dst, err = wire.AppendValue(dst, c.key); err != nil {
				return dst, err
			}
			if dst, err = appendElems(binary.AppendVarint(dst, int64(c.lb)), active); err != nil {
				return dst, err
			}
		}
		return out.append(dst)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (g *GroupBy) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		var es []temporal.Element
		for n := d.Count(); n > 0 && d.Err() == nil; n-- {
			key := d.Value()
			grp := g.newGroup(temporal.Time(d.Varint()))
			es = readElems(d, es)
			for _, e := range es {
				grp.active.Push(e)
				grp.agg.Insert(e.Value)
				// One expiry event per live element: exactly the non-stale
				// subset of the original heap.
				g.expiry.Push(expiryEvent{end: e.End, key: key})
			}
			if d.Err() == nil {
				g.groups[key] = grp
				g.holdBack(grp.lb, key)
			}
		}
		g.load(d)
	})
}

// diffKeyState is one per-key multiplicity record of Difference/Intersect.
type diffKeyState struct {
	key    any
	value  any
	counts [2]int
	lb     temporal.Time
}

// diffCapture is the copy-on-write capture shared by Difference and
// Intersect: per-key records and the expiry heap's backing array copied
// flat; sorting happens in the encode closure. The expiry heap is
// serialised verbatim: which interval ends remain pending per input is
// not recoverable from the counters alone.
type diffCapture struct {
	keys   []diffKeyState
	expiry []diffExpiry
	inQ    [2][]temporal.Element
	out    orderBufferCapture
}

func (d *setOp) captureDiffLike() diffCapture {
	c := diffCapture{
		expiry: append([]diffExpiry(nil), d.expiry.Items()...),
		inQ:    [2][]temporal.Element{d.inQ[0].Items(), d.inQ[1].Items()},
		out:    d.capture(),
	}
	for k, ds := range d.state {
		c.keys = append(c.keys, diffKeyState{key: k, value: ds.value, counts: ds.counts, lb: ds.lb})
	}
	return c
}

// append writes the per-key records in key order, the expiry heap, both
// input queues and the pending output.
func (c diffCapture) append(dst []byte) ([]byte, error) {
	sortByKey(c.keys, func(k diffKeyState) any { return k.key })
	var err error
	dst = binary.AppendUvarint(dst, uint64(len(c.keys)))
	for _, k := range c.keys {
		if dst, err = wire.AppendValue(dst, k.key); err != nil {
			return dst, err
		}
		if dst, err = wire.AppendValue(dst, k.value); err != nil {
			return dst, err
		}
		dst = binary.AppendVarint(dst, int64(k.counts[0]))
		dst = binary.AppendVarint(dst, int64(k.counts[1]))
		dst = binary.AppendVarint(dst, int64(k.lb))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.expiry)))
	for _, ev := range c.expiry {
		if dst, err = wire.AppendValue(binary.AppendVarint(dst, int64(ev.end)), ev.key); err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(ev.input))
	}
	for _, q := range c.inQ {
		if dst, err = appendElems(dst, q); err != nil {
			return dst, err
		}
	}
	return c.out.append(dst)
}

func (d *setOp) loadDiffLike(dec *wire.Decoder) {
	for n := dec.Count(); n > 0 && dec.Err() == nil; n-- {
		key, value := dec.Value(), dec.Value()
		ds := &diffState{value: value, counts: [2]int{int(dec.Varint()), int(dec.Varint())}, lb: temporal.Time(dec.Varint())}
		if dec.Err() == nil {
			d.state[key] = ds
			d.holdBack(ds.lb, key)
		}
	}
	for n := dec.Count(); n > 0 && dec.Err() == nil; n-- {
		ev := diffExpiry{end: temporal.Time(dec.Varint()), key: dec.Value()}
		if input := dec.Uvarint(); input > 1 {
			dec.Fail(fmt.Errorf("ops: expiry event of input %d", input))
		} else {
			ev.input = int(input)
		}
		if dec.Err() == nil {
			d.expiry.Push(ev)
		}
	}
	var es []temporal.Element
	for _, q := range d.inQ {
		es = readElems(dec, es)
		for _, e := range es {
			q.Enqueue(e)
		}
	}
	d.load(dec)
}

// SnapshotState implements the ft.StateSaver contract for Difference and
// Intersect.
func (d *setOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return d.captureDiffLike().append, nil
}

// LoadState implements the ft.StateLoader contract for Difference and
// Intersect.
func (d *setOp) LoadState(state []byte) error {
	return loadState(state, d.loadDiffLike)
}

// SnapshotState implements the ft.StateSaver contract: a Union holds
// only its pending output.
func (u *Union) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return u.capture().append, nil
}

// LoadState implements the ft.StateLoader contract.
func (u *Union) LoadState(state []byte) error {
	return loadState(state, u.load)
}

// SnapshotState implements the ft.StateSaver contract: the not-yet-
// displaced elements. Arrival order is the state (displacement order), so
// the capture is the queue copy as-is.
func (w *CountWindow) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	buf := w.buf.Items()
	return func(dst []byte) ([]byte, error) { return appendElems(dst, buf) }, nil
}

// LoadState implements the ft.StateLoader contract.
func (w *CountWindow) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		for _, e := range readElems(d, nil) {
			w.buf.Enqueue(e)
		}
	})
}

// SnapshotState implements the ft.StateSaver contract: the number of
// areas, one per input in canonical order like Join's, then the pending
// output.
func (m *MJoin) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	areas := make([][]temporal.Element, len(m.areas))
	for i, a := range m.areas {
		areas[i] = a.Items()
	}
	out := m.capture()
	return func(dst []byte) ([]byte, error) {
		dst = binary.AppendUvarint(dst, uint64(len(areas)))
		for _, es := range areas {
			sortWire(es)
			var err error
			if dst, err = appendElems(dst, es); err != nil {
				return dst, err
			}
		}
		return out.append(dst)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (m *MJoin) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		if n := d.Count(); n != len(m.areas) {
			d.Fail(fmt.Errorf("ops: state has %d join areas, the operator %d", n, len(m.areas)))
			return
		}
		var es []temporal.Element
		for _, area := range m.areas {
			es = readElems(d, es)
			for _, e := range es {
				area.Insert(e)
			}
		}
		m.load(d)
	})
}

// partCapture is one partition's record in a flat capture: its key and
// the bounds of its elements in the capture's shared element slice. The
// elements stay in arrival order — that order IS the partition's state.
type partCapture struct {
	key      any
	off, end int
}

// SnapshotState implements the ft.StateSaver contract, capturing flat
// like GroupBy's: the partitions in key order, each as its key and its
// elements, then the pending output. The holdback entries are rebuilt on
// load from the restored queue heads.
func (w *PartitionedWindow) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	n := 0
	for _, q := range w.part {
		n += q.Len()
	}
	caps := make([]partCapture, 0, len(w.part))
	elems := make([]temporal.Element, 0, n)
	for k, q := range w.part {
		off := len(elems)
		elems = q.AppendTo(elems)
		caps = append(caps, partCapture{key: k, off: off, end: len(elems)})
	}
	out := w.capture()
	return func(dst []byte) ([]byte, error) {
		sortByKey(caps, func(c partCapture) any { return c.key })
		dst = binary.AppendUvarint(dst, uint64(len(caps)))
		for _, c := range caps {
			var err error
			if dst, err = wire.AppendValue(dst, c.key); err != nil {
				return dst, err
			}
			if dst, err = appendElems(dst, elems[c.off:c.end]); err != nil {
				return dst, err
			}
		}
		return out.append(dst)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (w *PartitionedWindow) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		var es []temporal.Element
		for n := d.Count(); n > 0 && d.Err() == nil; n-- {
			key := d.Value()
			es = readElems(d, es)
			if d.Err() != nil {
				return
			}
			q := xds.NewQueue[temporal.Element]()
			for _, e := range es {
				q.Enqueue(e)
			}
			w.part[key] = q
			if head, ok := q.Peek(); ok {
				w.holdBack(head.Start, key)
			}
		}
		w.load(d)
	})
}

// spanCapture is one pending Coalesce span in a capture.
type spanCapture struct {
	key  any
	span temporal.Element
}

// SnapshotState implements the ft.StateSaver contract: the pending spans
// in key order, each as its element alone (LoadState derives the key from
// the value), then the pending output. The end events and holdback
// entries are rebuilt on load, one per span.
func (c *Coalesce) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	spans := make([]spanCapture, 0, len(c.pending))
	for k, p := range c.pending {
		spans = append(spans, spanCapture{key: k, span: p.value})
	}
	out := c.capture()
	return func(dst []byte) ([]byte, error) {
		sortByKey(spans, func(s spanCapture) any { return s.key })
		dst = binary.AppendUvarint(dst, uint64(len(spans)))
		for _, s := range spans {
			var err error
			if dst, err = wire.AppendElement(dst, s.span); err != nil {
				return dst, err
			}
		}
		return out.append(dst)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (c *Coalesce) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		for n := d.Count(); n > 0 && d.Err() == nil; n-- {
			e := d.Element()
			if d.Err() != nil {
				return
			}
			k := c.key(e.Value)
			c.pending[k] = &span{value: e}
			c.ends.Push(endEntry{end: e.End, key: k})
			c.holdBack(e.Start, k)
		}
		c.load(d)
	})
}

// SnapshotState implements the ft.StateSaver contract: a DStream holds
// only its pending output.
func (d *DStream) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return d.capture().append, nil
}

// LoadState implements the ft.StateLoader contract.
func (d *DStream) LoadState(state []byte) error { return loadState(state, d.load) }

// SnapshotState implements the ft.StateSaver contract: a Split holds
// only its pending output.
func (s *Split) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	return s.capture().append, nil
}

// LoadState implements the ft.StateLoader contract.
func (s *Split) LoadState(state []byte) error { return loadState(state, s.load) }

// SnapshotState implements the ft.StateSaver contract: whether the
// sampler has seen an element, its next boundary, then its live elements
// in heap order. Pushing them back in that order rebuilds the same heap,
// so a restored sampler emits each boundary in the order the original
// would have.
func (s *Sample) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	seeded, next := uint64(0), s.nextB
	if s.seeded {
		seeded = 1
	}
	active := append([]temporal.Element(nil), s.active.Items()...)
	return func(dst []byte) ([]byte, error) {
		dst = binary.AppendVarint(binary.AppendUvarint(dst, seeded), int64(next))
		return appendElems(dst, active)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (s *Sample) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		if seeded := d.Uvarint(); seeded > 1 {
			d.Fail(fmt.Errorf("ops: sampler seeded flag %d", seeded))
		} else {
			s.seeded = seeded == 1
		}
		s.nextB = temporal.Time(d.Varint())
		for _, e := range readElems(d, nil) {
			s.active.Push(e)
		}
	})
}
