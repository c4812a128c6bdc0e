// Checkpoint state serialisation for the stateful operators. An
// operator's state is a list of parts — the ordered core, sweep areas,
// arrival-ordered queues, MJoin's arity and one table per keyed structure
// — that it declares once, in its constructor. Each part captures,
// encodes, loads and counts itself; the embedded parts type turns the
// list into the operator's SnapshotState, LoadState and MemoryUsage
// (ft.StateSaver/StateLoader and the memory reporter, declared elsewhere
// so ops stays free of an ft import). The encoding is the parts'
// encodings in list order, the core always last:
//
//   - SnapshotState is the copy-on-write capture: invoked by the barrier
//     save hook under ProcMu, it has each part copy its live collections
//     — flat slice copies, no canonical ordering, no encoding — into its
//     own capture and return an encoder that reads only that capture. The
//     returned closure runs the encoders later, on the checkpoint writer's
//     goroutine, concurrent with post-barrier processing; it reads only
//     the captures and the immutable element values (the engine's purity
//     contract), so sorting and encoding both stay off the barrier stall.
//     Keyed tables copy every live element into one slice and keep one
//     (key, bounds) record per key.
//   - The captures live in buffers the operator keeps between rounds: a
//     capture leases them from the operator's recycler, and the closure's
//     one call hands them back, cleared, after it has appended the bytes.
//     Rounds never overlap, so one kept set per operator suffices; a
//     round abandoned before its encode never hands its lease back, and
//     the next capture makes new buffers. A warmed capture allocates its
//     lease and its closure, whatever the size of the state. The kept
//     buffers count in the operator's MemoryUsage.
//   - Each part appends its fields in one fixed order with the state
//     codec (internal/wire); values and keys carry the codec's tags.
//     Map-derived collections are written in one canonical order (keyCmp,
//     sortByKey), which compares typed keys by value and renders a key
//     only when its kind is outside the typed set — once per key per
//     sort, never inside a comparator.
//   - LoadState runs on a freshly constructed, not-yet-started operator.
//     Corrupt state is an error, never a panic, and so are bytes left over
//     after the last part.
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
	"sync/atomic"

	"pipes/internal/sweeparea"
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

// part is one piece of an operator's checkpointable state.
type part interface {
	// capture copies the piece into c, under ProcMu, and returns the
	// encoder that writes the copy. The encoder reads only c: it runs
	// later, on the checkpoint writer, beside post-barrier processing.
	capture(c *capture) encoder
	// load reads the piece back into a freshly constructed operator.
	load(d *wire.Decoder)
	// bytes is what the piece holds, in the memory manager's estimates:
	// a slab's every slot, free ones included — element slabs, list-node
	// slabs and list tables — and a heap's array as allocated; elsewhere
	// 64 bytes an element, 48 a key record.
	bytes() int
}

// encoder appends the encoding of one part's capture.
type encoder func(c *capture, dst []byte) ([]byte, error)

// capture is one part's copy in a round's image: the elements, keyed
// records and numbers it holds, and the encoder that writes them.
type capture struct {
	elems []temporal.Element
	recs  []record
	vals  []any // set-operation values, indexed by their records' off
	nums  []int64
	enc   encoder
}

// record is one keyed entry of a capture, kept as narrow as the keyed
// tables need: a key, a time and two offsets — a group's or partition's
// elements elems[off:end], a span's element elems[off], a set-operation
// key's value vals[off] and counts nums[2off:2off+2], an expiry event's
// input.
type record struct {
	key      any
	t        temporal.Time
	off, end int
}

func recKey(r record) any { return r.key }

// reset truncates every buffer, clearing what it held first, so a kept
// capture pins no value of the round it captured.
func (c *capture) reset() {
	c.elems = cleared(c.elems)
	c.recs = cleared(c.recs)
	c.vals = cleared(c.vals)
	c.nums = cleared(c.nums)
	c.enc = nil
}

func cleared[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// reserve returns the empty buffer s with room for n. A buffer too
// small grows geometrically, so a state that grows a little every round
// reallocates its buffers in a few rounds, not in each.
func reserve[T any](s []T, n int) []T { return slices.Grow(s[:0], n) }

// appendSlots appends the elements of the heap's slots to dst in heap
// array order: the values a heap of elements would hold there, since a
// heap's sifts follow its keys alone.
func appendSlots(dst []temporal.Element, h *xds.Heap[temporal.Time, int32], s *xds.Slab[temporal.Element]) []temporal.Element {
	dst = slices.Grow(dst, h.Len())
	for _, slot := range h.All() {
		dst = append(dst, s.At(slot))
	}
	return dst
}

// bytes is the capacity c holds: 64 bytes an element, 48 a record, 16 a
// value, 8 a number.
func (c *capture) bytes() int {
	return cap(c.elems)*64 + cap(c.recs)*48 + cap(c.vals)*16 + cap(c.nums)*8
}

// parts is an operator's checkpointable state, declared once as the list
// of pieces it is made of. Its methods are the operator's ft.StateSaver,
// ft.StateLoader and memory reporter.
type parts struct {
	lock  *sync.Mutex // the operator's ProcMu
	list  []part
	snaps recycler // the captures, kept between rounds
	// free is what the operator keeps beside its state, nil if nothing:
	// the free rows of a γ that lends them (NewGroupInto).
	free interface{ bytes() int }
}

// declare lists the operator's parts; lock is its ProcMu.
func (p *parts) declare(lock *sync.Mutex, list ...part) { p.lock, p.list = lock, list }

// SnapshotState implements the ft.StateSaver contract: every part
// captures into its slot of one leased image, and the closure encodes
// the slots in list order.
func (p *parts) SnapshotState() (func(dst []byte) ([]byte, error), error) {
	l := p.snaps.lease(len(p.list))
	for i, pt := range p.list {
		l.img[i].enc = pt.capture(&l.img[i])
	}
	return l.encode, nil
}

// LoadState implements the ft.StateLoader contract.
func (p *parts) LoadState(state []byte) error {
	return loadState(state, func(d *wire.Decoder) {
		for _, pt := range p.list {
			if d.Err() != nil {
				return
			}
			pt.load(d)
		}
	})
}

// MemoryUsage implements the metadata/memory reporter: what the parts
// hold, and the kept captures and free rows, which stay allocated.
func (p *parts) MemoryUsage() int {
	p.lock.Lock()
	defer p.lock.Unlock()
	n := p.snaps.bytes()
	if p.free != nil {
		n += p.free.bytes()
	}
	for _, pt := range p.list {
		n += pt.bytes()
	}
	return n
}

// recycler keeps one operator's image — a capture per part — between
// rounds: the barrier side leases it, the writer hands it back, so it
// locks.
type recycler struct {
	mu    sync.Mutex
	spare []capture
	// out is the latest lease until its image comes back: while it is
	// set, a capture may still refer to values the operator published
	// since. A round abandoned before its encode stays out until the
	// next lease replaces it.
	out atomic.Pointer[lease]
}

// take removes the kept image, nil if none is kept.
func (r *recycler) take() []capture {
	r.mu.Lock()
	defer r.mu.Unlock()
	img := r.spare
	r.spare = nil
	return img
}

// lease hands out the kept image, or a new one of n captures when none
// is kept.
func (r *recycler) lease(n int) *lease {
	img := r.take()
	if img == nil {
		img = make([]capture, n)
	}
	l := &lease{home: r, img: img}
	r.out.Store(l)
	return l
}

// leased reports whether the latest lease's image has not come back.
func (r *recycler) leased() bool { return r.out.Load() != nil }

// put keeps l's image img, cleared, for the next round.
func (r *recycler) put(l *lease, img []capture) {
	for i := range img {
		img[i].reset()
	}
	r.mu.Lock()
	r.spare = img
	r.mu.Unlock()
	r.out.CompareAndSwap(l, nil)
}

// bytes is the capacity of the kept image.
func (r *recycler) bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return imageBytes(r.spare)
}

// drop lets the kept image go and returns its capacity: what a
// memory-manager shed releases before any element.
func (r *recycler) drop() int { return imageBytes(r.take()) }

func imageBytes(img []capture) int {
	n := 0
	for i := range img {
		n += img[i].bytes()
	}
	return n
}

// errEncodedTwice is a second call of an encode closure: its first call
// handed the capture back.
var errEncodedTwice = errors.New("ops: encode closure called twice; its capture was handed back after the first call")

// lease is one round's hold on an operator's image.
type lease struct {
	home *recycler
	img  []capture
}

// encode appends every part's capture with its encoder, then hands the
// image back to the recycler: the encode closure's one call. A second
// call finds the lease spent and fails.
func (l *lease) encode(dst []byte) ([]byte, error) {
	img := l.img
	if img == nil {
		return dst, errEncodedTwice
	}
	l.img = nil
	defer l.home.put(l, img)
	for i := range img {
		var err error
		if dst, err = img[i].enc(&img[i], dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// capture copies the order buffer: the pending (unreleased) results in
// heap array order, and the watermark, written as a list of one. Done
// inputs are re-established by the replayed inputs, and the holdback
// heap is rebuilt by the parts before the core.
func (c *ordered) capture(cp *capture) encoder {
	cp.elems = appendSlots(cp.elems, &c.out, &c.results)
	cp.nums = append(cp.nums, int64(c.wm))
	return encodeCore
}

func encodeCore(c *capture, dst []byte) ([]byte, error) {
	dst, err := appendElems(dst, c.elems)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.nums)))
	for _, n := range c.nums {
		dst = binary.AppendVarint(dst, n)
	}
	return dst, nil
}

func (c *ordered) load(d *wire.Decoder) {
	for _, e := range readElems(d, nil) {
		c.add(e)
	}
	if n := d.Count(); n != 1 {
		d.Fail(fmt.Errorf("ops: state has %d watermarks, want 1", n))
		return
	}
	c.wm = temporal.Time(d.Varint())
}

// bytes is the slab, free slots included, the heap's slot array and the
// holdback's arrays.
func (c *ordered) bytes() int { return c.results.Bytes() + c.out.Bytes() + c.holds.Bytes() }

// area is a sweep area as a part. Its contents are written in canonical
// order — area semantics are insertion-order independent — sorted by the
// encoder, off the stall.
type area struct{ sweeparea.SweepArea }

func (a area) capture(c *capture) encoder {
	c.elems = a.AppendItems(c.elems)
	return encodeArea
}

func encodeArea(c *capture, dst []byte) ([]byte, error) {
	sortWire(c.elems)
	return appendElems(dst, c.elems)
}

func (a area) load(d *wire.Decoder) {
	for _, e := range readElems(d, nil) {
		a.Insert(e)
	}
}

func (a area) bytes() int { return a.MemoryUsage() }

// queue is an arrival-ordered queue as a part: its elements as they are,
// since their order is the state.
type queue struct{ *xds.Queue[temporal.Element] }

func (q queue) capture(c *capture) encoder {
	c.elems = q.AppendTo(c.elems)
	return encodeQueue
}

func encodeQueue(c *capture, dst []byte) ([]byte, error) { return appendElems(dst, c.elems) }

func (q queue) load(d *wire.Decoder) {
	for _, e := range readElems(d, nil) {
		q.Enqueue(e)
	}
}

func (q queue) bytes() int { return q.Len() * 64 }

// arity is MJoin's number of inputs as a part, written before its areas:
// a state of another arity is refused.
type arity int

func (a arity) capture(c *capture) encoder {
	c.nums = append(c.nums, int64(a))
	return encodeArity
}

func encodeArity(c *capture, dst []byte) ([]byte, error) {
	return binary.AppendUvarint(dst, uint64(c.nums[0])), nil
}

func (a arity) load(d *wire.Decoder) {
	if n := d.Count(); n != int(a) {
		d.Fail(fmt.Errorf("ops: state has %d join areas, the operator %d", n, a))
	}
}

func (a arity) bytes() int { return 0 }

// groupTable is GroupBy's groups as a part: in key order, each its key,
// open-span left boundary and live element multiset. The capture copies
// every group's live elements into one slice. The aggregate is rebuilt on
// load by re-inserting the live elements (for invertible aggregates every
// expired removal has already been applied, so the live multiset
// reproduces the aggregate exactly), and so are the expiry entries and
// holdback entries. The multisets are canonically sorted by the encoder
// (they are reloaded by re-insertion, so their order is free), which
// gives consecutive rounds byte-stable encodings where raw list order
// would shuffle unchanged groups.
type groupTable struct{ g *GroupBy }

func (t groupTable) capture(c *capture) encoder {
	c.recs = reserve(c.recs, len(t.g.groups))
	c.elems = reserve(c.elems, t.g.elems.Len())
	for k, id := range t.g.groups {
		off := len(c.elems)
		c.elems = t.g.elems.AppendTo(c.elems, id)
		c.recs = append(c.recs, record{key: k, t: t.g.elems.Rec(id).lb, off: off, end: len(c.elems)})
	}
	return encodeGroups
}

func encodeGroups(c *capture, dst []byte) ([]byte, error) { return c.appendKeyed(dst, true) }

// appendKeyed writes the records in key order, each as its key, then —
// for a group — its time, then its elements: a group's multiset in
// canonical order, a partition's queue in arrival order.
func (c *capture) appendKeyed(dst []byte, group bool) ([]byte, error) {
	sortByKey(c.recs, recKey)
	dst = binary.AppendUvarint(dst, uint64(len(c.recs)))
	for _, r := range c.recs {
		es := c.elems[r.off:r.end]
		var err error
		if dst, err = wire.AppendValue(dst, r.key); err != nil {
			return dst, err
		}
		if group {
			sortWire(es)
			dst = binary.AppendVarint(dst, int64(r.t))
		}
		if dst, err = appendElems(dst, es); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// errRepeatedKey is a state that holds one key twice: a keyed table
// writes each of its keys once.
func errRepeatedKey(key any) error { return fmt.Errorf("ops: state repeats key %v", key) }

func (t groupTable) load(d *wire.Decoder) {
	g := t.g
	var es []temporal.Element
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		key := d.Value()
		lb := temporal.Time(d.Varint())
		es = readElems(d, es)
		switch _, dup := g.groups[key]; {
		case d.Err() != nil:
			return
		case dup:
			d.Fail(errRepeatedKey(key))
			return
		case len(es) == 0:
			d.Fail(fmt.Errorf("ops: group %v holds no elements", key))
			return
		}
		id := g.newGroup(key, lb)
		g.groups[key] = id
		grp := g.elems.Rec(id)
		for _, e := range es {
			// One expiry entry per live element, pushed in the order
			// the encoding holds them.
			g.expiry.Push(e.End, g.elems.Append(id, e))
			grp.agg.Insert(e.Value)
		}
	}
}

// bytes is the node slab and the list table of group records, free
// slots included, and the expiry heap's array. Spare aggregates are not
// counted, as no aggregate is.
func (t groupTable) bytes() int { return t.g.elems.Bytes() + t.g.expiry.Bytes() }

// partitionTable is PartitionedWindow's partitions as a part, captured
// flat like groupTable: in key order, each its key and its elements in
// arrival order — that order IS the partition's state. The holdback
// entries are rebuilt on load from the restored queue heads.
type partitionTable struct{ w *PartitionedWindow }

func (t partitionTable) capture(c *capture) encoder {
	n := 0
	for _, p := range t.w.part {
		n += p.q.Len()
	}
	c.recs = reserve(c.recs, len(t.w.part))
	c.elems = reserve(c.elems, n)
	for k, p := range t.w.part {
		off := len(c.elems)
		c.elems = p.q.AppendTo(c.elems)
		c.recs = append(c.recs, record{key: k, off: off, end: len(c.elems)})
	}
	return encodePartitions
}

func encodePartitions(c *capture, dst []byte) ([]byte, error) { return c.appendKeyed(dst, false) }

func (t partitionTable) load(d *wire.Decoder) {
	var es []temporal.Element
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		key := d.Value()
		es = readElems(d, es)
		if d.Err() != nil {
			return
		}
		if _, dup := t.w.part[key]; dup {
			d.Fail(errRepeatedKey(key))
			return
		}
		p := &partition{}
		for _, e := range es {
			p.q.Enqueue(e)
		}
		lb := temporal.MaxTime
		if head, ok := p.q.Peek(); ok {
			lb = head.Start
		}
		p.hold = t.w.holds.Push(lb)
		t.w.part[key] = p
	}
}

func (t partitionTable) bytes() int {
	n := 0
	for _, p := range t.w.part {
		n += p.q.Len()
	}
	return n*64 + len(t.w.part)*48
}

// spanTable is Coalesce's pending spans as a part: in key order, each as
// its element alone (load derives the key from the value). The end
// events and holdback entries are rebuilt on load, one per span.
type spanTable struct{ c *Coalesce }

func (t spanTable) capture(c *capture) encoder {
	for k, p := range t.c.pending {
		c.recs = append(c.recs, record{key: k, off: len(c.elems)})
		c.elems = append(c.elems, p.value)
	}
	return encodeSpans
}

func encodeSpans(c *capture, dst []byte) ([]byte, error) {
	sortByKey(c.recs, recKey)
	dst = binary.AppendUvarint(dst, uint64(len(c.recs)))
	for _, r := range c.recs {
		var err error
		if dst, err = wire.AppendElement(dst, c.elems[r.off]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func (t spanTable) load(d *wire.Decoder) {
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		e := d.Element()
		if d.Err() != nil {
			return
		}
		k := t.c.key(e.Value)
		if _, dup := t.c.pending[k]; dup {
			d.Fail(errRepeatedKey(k))
			return
		}
		t.c.pending[k] = &span{value: e, hold: t.c.holds.Push(e.Start)}
		t.c.ends.Push(e.End, k)
	}
}

func (t spanTable) bytes() int { return len(t.c.pending) * 64 }

// setKeys is Difference's and Intersect's per-key multiplicity records as
// a part: in key order, each its key, value, two counts and open-span
// left boundary.
type setKeys struct{ d *setOp }

func (t setKeys) capture(c *capture) encoder {
	for k, st := range t.d.state {
		c.recs = append(c.recs, record{key: k, t: st.lb, off: len(c.vals)})
		c.vals = append(c.vals, st.value)
		c.nums = append(c.nums, int64(st.counts[0]), int64(st.counts[1]))
	}
	return encodeSetKeys
}

func encodeSetKeys(c *capture, dst []byte) ([]byte, error) {
	sortByKey(c.recs, recKey)
	dst = binary.AppendUvarint(dst, uint64(len(c.recs)))
	for _, r := range c.recs {
		var err error
		if dst, err = wire.AppendValue(dst, r.key); err != nil {
			return dst, err
		}
		if dst, err = wire.AppendValue(dst, c.vals[r.off]); err != nil {
			return dst, err
		}
		dst = binary.AppendVarint(dst, c.nums[2*r.off])
		dst = binary.AppendVarint(dst, c.nums[2*r.off+1])
		dst = binary.AppendVarint(dst, int64(r.t))
	}
	return dst, nil
}

func (t setKeys) load(dec *wire.Decoder) {
	for n := dec.Count(); n > 0 && dec.Err() == nil; n-- {
		key, value := dec.Value(), dec.Value()
		ds := &diffState{value: value, counts: [2]int{int(dec.Varint()), int(dec.Varint())}, lb: temporal.Time(dec.Varint())}
		if dec.Err() != nil {
			return
		}
		if _, dup := t.d.state[key]; dup {
			dec.Fail(errRepeatedKey(key))
			return
		}
		ds.hold = t.d.holds.Push(ds.lb)
		t.d.state[key] = ds
	}
}

// bytes is 72 bytes a key, its pending expiry events included.
func (t setKeys) bytes() int { return len(t.d.state) * 72 }

// setExpiry is Difference's and Intersect's expiry heap as a part,
// written verbatim: which interval ends remain pending per input is not
// recoverable from the counters alone.
type setExpiry struct{ d *setOp }

func (t setExpiry) capture(c *capture) encoder {
	for end, ev := range t.d.expiry.All() {
		c.recs = append(c.recs, record{key: ev.key, t: end, off: ev.input})
	}
	return encodeSetExpiry
}

func encodeSetExpiry(c *capture, dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(c.recs)))
	for _, r := range c.recs {
		var err error
		if dst, err = wire.AppendValue(binary.AppendVarint(dst, int64(r.t)), r.key); err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(r.off))
	}
	return dst, nil
}

func (t setExpiry) load(dec *wire.Decoder) {
	for n := dec.Count(); n > 0 && dec.Err() == nil; n-- {
		end := temporal.Time(dec.Varint())
		ev := diffExpiry{key: dec.Value()}
		if input := dec.Uvarint(); input > 1 {
			dec.Fail(fmt.Errorf("ops: expiry event of input %d", input))
		} else {
			ev.input = int(input)
		}
		if dec.Err() == nil {
			t.d.expiry.Push(end, ev)
		}
	}
}

// bytes is nothing of its own: setKeys' estimate covers the events.
func (t setExpiry) bytes() int { return 0 }

// sampler is Sample's state as a part: whether it has seen an element,
// its next boundary, then its live elements in heap order. Pushing them
// back in that order rebuilds the same heap, so a restored sampler emits
// each boundary in the order the original would have.
type sampler struct{ s *Sample }

func (t sampler) capture(c *capture) encoder {
	seeded := int64(0)
	if t.s.seeded {
		seeded = 1
	}
	c.nums = append(c.nums, seeded, int64(t.s.nextB))
	c.elems = appendSlots(c.elems, &t.s.active, &t.s.elems)
	return encodeSampler
}

func encodeSampler(c *capture, dst []byte) ([]byte, error) {
	dst = binary.AppendVarint(binary.AppendUvarint(dst, uint64(c.nums[0])), c.nums[1])
	return appendElems(dst, c.elems)
}

func (t sampler) load(d *wire.Decoder) {
	if seeded := d.Uvarint(); seeded > 1 {
		d.Fail(fmt.Errorf("ops: sampler seeded flag %d", seeded))
	} else {
		t.s.seeded = seeded == 1
	}
	t.s.nextB = temporal.Time(d.Varint())
	for _, e := range readElems(d, nil) {
		t.s.active.Push(e.End, t.s.elems.Put(e))
	}
}

// bytes is the slab, free slots included, and the heap's slot array.
func (t sampler) bytes() int { return t.s.elems.Bytes() + t.s.active.Bytes() }

// lateDrops is the Sequencer's count of late elements as a part, with the
// core's released bound, which decides what is late.
type lateDrops struct{ s *Sequencer }

func (t lateDrops) capture(c *capture) encoder {
	c.nums = append(c.nums, t.s.late, int64(t.s.released))
	return encodeLateDrops
}

func encodeLateDrops(c *capture, dst []byte) ([]byte, error) {
	return binary.AppendVarint(binary.AppendUvarint(dst, uint64(c.nums[0])), c.nums[1]), nil
}

func (t lateDrops) load(d *wire.Decoder) {
	t.s.late = int64(d.Uvarint())
	t.s.released = temporal.Time(d.Varint())
}

func (t lateDrops) bytes() int { return 0 }
