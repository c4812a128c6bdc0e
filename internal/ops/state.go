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
//     encoding both move off the barrier stall. GroupBy and
//     PartitionedWindow copy every live element into one shared slice and
//     keep one (key, bounds) record per group or partition.
//   - The copies go into buffers the operator keeps between rounds: a
//     capture leases them from the operator's recycler, and the closure's
//     one call hands them back, cleared, after it has appended the bytes.
//     Rounds never overlap, so one kept set per operator suffices; a
//     round abandoned before its encode never hands its lease back, and
//     the next capture makes new buffers. A warmed capture allocates its
//     lease and its closure, whatever the size of the state. The kept
//     buffers count in the operator's MemoryUsage.
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
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

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

// image is one round's capture of an operator: copies of its live
// collections, taken under ProcMu and encoded later on the checkpoint
// writer. Each operator fills the fields its state has.
type image struct {
	elems   []temporal.Element // live elements, flat: areas, queues, groups, partitions
	ends    []int              // where each area or queue ends in elems
	groups  []groupCapture
	parts   []partCapture
	keys    []diffKeyState
	expiry  []diffExpiry
	spans   []spanCapture
	pending []temporal.Element // the ordered core's unreleased results
	wm      []temporal.Time
}

// segment returns the i-th area or queue copied into elems.
func (s *image) segment(i int) []temporal.Element {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.elems[start:s.ends[i]]
}

// cut ends the area or queue just appended to elems.
func (s *image) cut() { s.ends = append(s.ends, len(s.elems)) }

// reset truncates every buffer, clearing what it held first, so a kept
// image pins no value of the round it captured.
func (s *image) reset() {
	s.elems = cleared(s.elems)
	s.ends = cleared(s.ends)
	s.groups = cleared(s.groups)
	s.parts = cleared(s.parts)
	s.keys = cleared(s.keys)
	s.expiry = cleared(s.expiry)
	s.spans = cleared(s.spans)
	s.pending = cleared(s.pending)
	s.wm = cleared(s.wm)
}

func cleared[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// reserve returns the empty buffer s with room for n, a new one if s is
// too small.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s
}

// bytes is the capacity s holds, in the memory manager's estimates: 64
// bytes an element, 48 a key record, 8 an offset or a watermark. A nil
// image holds nothing.
func (s *image) bytes() int {
	if s == nil {
		return 0
	}
	return (cap(s.elems)+cap(s.pending))*64 +
		(cap(s.groups)+cap(s.parts)+cap(s.keys)+cap(s.expiry)+cap(s.spans))*48 +
		(cap(s.ends)+cap(s.wm))*8
}

// recycler keeps one operator's capture buffers between rounds: the
// barrier side leases them, the writer hands them back, so it locks.
type recycler struct {
	mu    sync.Mutex
	spare *image
}

// take removes the kept buffers, nil if none are kept.
func (r *recycler) take() *image {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spare
	r.spare = nil
	return s
}

// lease hands out the kept buffers, or new ones when none are kept.
func (r *recycler) lease() *lease {
	s := r.take()
	if s == nil {
		s = new(image)
	}
	return &lease{home: r, img: s}
}

// put keeps s, cleared, for the next capture.
func (r *recycler) put(s *image) {
	s.reset()
	r.mu.Lock()
	r.spare = s
	r.mu.Unlock()
}

// bytes is the capacity of the kept buffers.
func (r *recycler) bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spare.bytes()
}

// drop lets the kept buffers go and returns their capacity: what a
// memory-manager shed releases before any element.
func (r *recycler) drop() int { return r.take().bytes() }

// errEncodedTwice is a second call of an encode closure: its first call
// handed the capture back.
var errEncodedTwice = errors.New("ops: encode closure called twice; its capture was handed back after the first call")

// lease is one round's hold on an operator's capture buffers. The
// capture fills img; the encode closure's one call encodes it and hands
// it back.
type lease struct {
	home *recycler
	img  *image
}

// encode appends the leased capture's encoding with body, then hands the
// buffers back to the recycler: the one call an encode closure makes. A
// second call finds the lease spent and fails.
func (l *lease) encode(dst []byte, body func(s *image, dst []byte) ([]byte, error)) ([]byte, error) {
	s := l.img
	if s == nil {
		return dst, errEncodedTwice
	}
	l.img = nil
	defer l.home.put(s)
	return body(s, dst)
}

// capture leases the core's buffers and copies the order buffer into
// them: plain slice copies taken under ProcMu (xds.Heap.Items returns its
// backing array, so the capture must copy). Its encoding is the pending
// (unreleased) results and the per-input watermarks; done inputs are
// re-established by the replayed inputs, and the holdback heap is rebuilt
// by the operator that owns it.
func (c *ordered) capture() *lease {
	l := c.snaps.lease()
	l.img.pending = append(l.img.pending, c.out.Items()...)
	l.img.wm = append(l.img.wm, c.wm...)
	return l
}

// heldBytes is what the core holds: its pending results and the kept
// capture buffers.
func (c *ordered) heldBytes() int { return c.buffered()*64 + c.snaps.bytes() }

// appendOut writes the order buffer's capture.
func (s *image) appendOut(dst []byte) ([]byte, error) {
	dst, err := appendElems(dst, s.pending)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.wm)))
	for _, t := range s.wm {
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

// SnapshotState implements the ft.StateSaver contract: both sweep areas,
// then the pending output. Area contents are written in canonical order —
// area semantics are insertion-order independent — sorted in the
// closure, off the stall.
func (j *Join) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	l := j.capture()
	for _, a := range j.areas {
		l.img.elems = a.AppendItems(l.img.elems)
		l.img.cut()
	}
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendJoin) }, nil
}

// appendJoin writes every captured area in canonical order, then the
// pending output.
func (s *image) appendJoin(dst []byte) ([]byte, error) {
	for i := range s.ends {
		a := s.segment(i)
		sortWire(a)
		var err error
		if dst, err = appendElems(dst, a); err != nil {
			return dst, err
		}
	}
	return s.appendOut(dst)
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
	l := g.capture()
	s := l.img
	s.groups = reserve(s.groups, len(g.groups))
	s.elems = reserve(s.elems, n)
	for k, grp := range g.groups {
		off := len(s.elems)
		s.elems = append(s.elems, grp.active.Items()...)
		s.groups = append(s.groups, groupCapture{key: k, lb: grp.lb, off: off, end: len(s.elems)})
	}
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendGroups) }, nil
}

func (s *image) appendGroups(dst []byte) ([]byte, error) {
	sortByKey(s.groups, func(c groupCapture) any { return c.key })
	dst = binary.AppendUvarint(dst, uint64(len(s.groups)))
	for _, c := range s.groups {
		active := s.elems[c.off:c.end]
		sortWire(active)
		var err error
		if dst, err = wire.AppendValue(dst, c.key); err != nil {
			return dst, err
		}
		if dst, err = appendElems(binary.AppendVarint(dst, int64(c.lb)), active); err != nil {
			return dst, err
		}
	}
	return s.appendOut(dst)
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

// SnapshotState implements the ft.StateSaver contract for Difference and
// Intersect: per-key records, the expiry heap's backing array and both
// input queues copied flat; sorting happens in the encode closure. The
// expiry heap is serialised verbatim: which interval ends remain pending
// per input is not recoverable from the counters alone.
func (d *setOp) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	l := d.capture()
	s := l.img
	s.expiry = append(s.expiry, d.expiry.Items()...)
	for _, q := range d.inQ {
		s.elems = q.AppendTo(s.elems)
		s.cut()
	}
	for k, ds := range d.state {
		s.keys = append(s.keys, diffKeyState{key: k, value: ds.value, counts: ds.counts, lb: ds.lb})
	}
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendDiff) }, nil
}

// appendDiff writes the per-key records in key order, the expiry heap,
// both input queues and the pending output.
func (s *image) appendDiff(dst []byte) ([]byte, error) {
	sortByKey(s.keys, func(k diffKeyState) any { return k.key })
	var err error
	dst = binary.AppendUvarint(dst, uint64(len(s.keys)))
	for _, k := range s.keys {
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
	dst = binary.AppendUvarint(dst, uint64(len(s.expiry)))
	for _, ev := range s.expiry {
		if dst, err = wire.AppendValue(binary.AppendVarint(dst, int64(ev.end)), ev.key); err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(ev.input))
	}
	for i := range s.ends {
		if dst, err = appendElems(dst, s.segment(i)); err != nil {
			return dst, err
		}
	}
	return s.appendOut(dst)
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

// LoadState implements the ft.StateLoader contract for Difference and
// Intersect.
func (d *setOp) LoadState(state []byte) error {
	return loadState(state, d.loadDiffLike)
}

// SnapshotState implements the ft.StateSaver contract: a Union holds
// only its pending output.
func (u *Union) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	l := u.capture()
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendOut) }, nil
}

// LoadState implements the ft.StateLoader contract.
func (u *Union) LoadState(state []byte) error {
	return loadState(state, u.load)
}

// SnapshotState implements the ft.StateSaver contract: the not-yet-
// displaced elements. Arrival order is the state (displacement order), so
// the capture is the queue copy as-is.
func (w *CountWindow) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	l := w.snaps.lease()
	l.img.elems = w.buf.AppendTo(l.img.elems)
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendElems) }, nil
}

// appendElems writes the captured elements as they are.
func (s *image) appendElems(dst []byte) ([]byte, error) { return appendElems(dst, s.elems) }

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
	l := m.capture()
	for _, a := range m.areas {
		l.img.elems = a.AppendItems(l.img.elems)
		l.img.cut()
	}
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendMJoin) }, nil
}

func (s *image) appendMJoin(dst []byte) ([]byte, error) {
	return s.appendJoin(binary.AppendUvarint(dst, uint64(len(s.ends))))
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
	l := w.capture()
	s := l.img
	s.parts = reserve(s.parts, len(w.part))
	s.elems = reserve(s.elems, n)
	for k, q := range w.part {
		off := len(s.elems)
		s.elems = q.AppendTo(s.elems)
		s.parts = append(s.parts, partCapture{key: k, off: off, end: len(s.elems)})
	}
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendParts) }, nil
}

func (s *image) appendParts(dst []byte) ([]byte, error) {
	sortByKey(s.parts, func(c partCapture) any { return c.key })
	dst = binary.AppendUvarint(dst, uint64(len(s.parts)))
	for _, c := range s.parts {
		var err error
		if dst, err = wire.AppendValue(dst, c.key); err != nil {
			return dst, err
		}
		if dst, err = appendElems(dst, s.elems[c.off:c.end]); err != nil {
			return dst, err
		}
	}
	return s.appendOut(dst)
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
	l := c.capture()
	for k, p := range c.pending {
		l.img.spans = append(l.img.spans, spanCapture{key: k, span: p.value})
	}
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendSpans) }, nil
}

func (s *image) appendSpans(dst []byte) ([]byte, error) {
	sortByKey(s.spans, func(sc spanCapture) any { return sc.key })
	dst = binary.AppendUvarint(dst, uint64(len(s.spans)))
	for _, sc := range s.spans {
		var err error
		if dst, err = wire.AppendElement(dst, sc.span); err != nil {
			return dst, err
		}
	}
	return s.appendOut(dst)
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
	l := d.capture()
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendOut) }, nil
}

// LoadState implements the ft.StateLoader contract.
func (d *DStream) LoadState(state []byte) error { return loadState(state, d.load) }

// SnapshotState implements the ft.StateSaver contract: a Split holds
// only its pending output.
func (s *Split) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	l := s.capture()
	return func(dst []byte) ([]byte, error) { return l.encode(dst, (*image).appendOut) }, nil
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
	l := s.snaps.lease()
	l.img.elems = append(l.img.elems, s.active.Items()...)
	return func(dst []byte) ([]byte, error) {
		return l.encode(binary.AppendVarint(binary.AppendUvarint(dst, seeded), int64(next)), (*image).appendElems)
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
