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
//   - The keyed operators — γ, Coalesce, Difference and Intersect,
//     PartitionedWindow — share one keyed part (keyed): each writes its
//     keys in key order, one entry a key of the operator's own fields.
//     Auxiliary structures derivable from that state (γ's expiry heap,
//     Coalesce's end heap, the holdback heap) are rebuilt rather than
//     serialised; the difference/intersect expiry heap is the one
//     exception — its entries cannot be recovered from the per-key
//     counters — and is serialised verbatim, each entry with its key.
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
	// slabs and list tables — and a heap's arrays as allocated; an
	// arrival queue's 64 bytes an element.
	bytes() int
}

// encoder appends the encoding of one part's capture.
type encoder func(c *capture, dst []byte) ([]byte, error)

// capture is one part's copy in a round's image: the elements, keyed
// records, values and numbers it holds, and the encoder that writes them.
type capture struct {
	elems []temporal.Element
	recs  []record
	vals  []any // set-operation values, indexed by their records' off; γ's pending rows' cells
	nums  []int64
	enc   encoder
	entry entryWriter // a keyed part's, for encodeKeyed
	row   *rowShape   // the core's, when its elements' values are rows in vals
}

// record is one keyed entry of a capture, kept as narrow as the keyed
// parts need: a key, a time and two offsets. The keyed skeleton sets the
// key and the elements elems[off:end] — a group's or partition's live
// elements, a span's element — and the operator's copy the rest: a
// group's left boundary in t, a set-operation key's left boundary in t,
// its value in vals[off] and counts in nums[2off:2off+2]. A set
// operation's expiry entry keeps its End in t and its input in off.
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
	c.enc, c.entry, c.row = nil, nil, nil
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
	return &lease{home: r, img: img}
}

// put keeps the image img, cleared, for the next round.
func (r *recycler) put(img []capture) {
	for i := range img {
		img[i].reset()
	}
	r.mu.Lock()
	r.spare = img
	r.mu.Unlock()
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
	defer l.home.put(img)
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
// heap is rebuilt by the parts before the core. γ's pending rows are
// copied as their cells, and written as the rows they will fill.
func (c *ordered) capture(cp *capture) encoder {
	cp.elems = appendSlots(cp.elems, &c.out, &c.results)
	if c.cells != nil {
		cp.vals = c.cells.appendSlots(cp.vals, &c.out)
		cp.row = c.cells.shape
	}
	cp.nums = append(cp.nums, int64(c.wm))
	return encodeCore
}

func encodeCore(c *capture, dst []byte) ([]byte, error) {
	var err error
	if c.row != nil {
		dst, err = c.row.appendElems(dst, c.elems, c.vals)
	} else {
		dst, err = appendElems(dst, c.elems)
	}
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
		if c.cells != nil {
			if err := c.cells.load(c.results.Next(), e.Value); err != nil {
				d.Fail(err)
				return
			}
			e.Value = nil
		}
		c.add(e)
	}
	if n := d.Count(); n != 1 {
		d.Fail(fmt.Errorf("ops: state has %d watermarks, want 1", n))
		return
	}
	c.wm = temporal.Time(d.Varint())
}

// bytes is the slab, free slots included, the heap's slot array, the
// holdback's arrays and γ's cells.
func (c *ordered) bytes() int {
	return c.results.Bytes() + c.out.Bytes() + c.holds.Bytes() + c.cells.bytes()
}

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
// since their order is the state. Of an input a barrier holds, only the
// arrivals before the barrier are the barrier's state.
type queue struct {
	*xds.Queue[temporal.Element]
	held *int // the input's held count (see input); nil for CountWindow's
}

func (q queue) capture(c *capture) encoder {
	n := q.Len()
	if q.held != nil && *q.held >= 0 {
		n = *q.held
	}
	c.elems = q.AppendTo(c.elems, n)
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

// keyed is the table of a keyed operator — γ's groups, Coalesce's
// pending spans, a set operation's keys, PartitionedWindow's partitions —
// and its part. Each key maps to the id of a list (xds.Lists) whose
// record R holds the key's own fields and whose nodes hold its live
// elements in arrival order. The id is also the key's owner id in the
// core's holdback and in any indexed heap of the operator's.
//
// The skeleton is shared: a capture copies every key's elements into one
// slice beside one record a key, the encoder writes the records in key
// order after their count, a load refuses a key it has already added, an
// end-of-stream flush visits the keys in key order, and bytes counts what
// the lists and the operator's heap have allocated. The operator states
// only its own fields, in its fixed order: copy copies them from a key's
// record into the capture, entry writes a key's entry, read loads the
// entries back and rebuilds what is derived from them.
type keyed[R any] struct {
	ids map[any]int32 // each key's list id
	xds.Lists[temporal.Element, R]
	holds *xds.IndexedHeap[temporal.Time] // the core's holdback
	heap  interface{ Bytes() int }        // the heap the operator orders its keys' entries by, if any
	copy  func(c *capture, r *record, rec *R)
	entry entryWriter
	read  func(d *wire.Decoder)
}

// entryWriter appends one key's entry of a keyed capture: the record r
// and what it indexes in c.
type entryWriter func(c *capture, dst []byte, r record) ([]byte, error)

// add gives key k a new list carrying rec, with its holdback entry at
// lb, and returns its id.
func (t *keyed[R]) add(k any, rec R, lb temporal.Time) int32 {
	id := t.New(rec)
	t.ids[k] = id
	t.holds.Push(id, lb)
	return id
}

// drop removes key k and its list id, which must be empty.
func (t *keyed[R]) drop(k any, id int32) {
	delete(t.ids, k)
	t.holds.Remove(id)
	t.Drop(id)
}

// inKeyOrder calls f with every key's id in canonical key order: the
// results an end-of-stream flush adds tie in the order buffer by
// insertion, so map order would vary the output from run to run.
func (t *keyed[R]) inKeyOrder(f func(id int32)) {
	rs := make([]record, 0, len(t.ids))
	for k, id := range t.ids {
		rs = append(rs, record{key: k, off: int(id)}) // off: the id
	}
	sortByKey(rs, recKey)
	for _, r := range rs {
		f(int32(r.off))
	}
}

func (t *keyed[R]) capture(c *capture) encoder {
	c.recs = reserve(c.recs, len(t.ids))
	c.elems = reserve(c.elems, t.Len())
	for k, id := range t.ids {
		c.recs = append(c.recs, record{key: k, off: len(c.elems)})
		r := &c.recs[len(c.recs)-1] // copy appends to every buffer but this
		c.elems = t.AppendTo(c.elems, id)
		if t.copy != nil {
			t.copy(c, r, t.Rec(id))
		}
		r.end = len(c.elems)
	}
	c.entry = t.entry
	return encodeKeyed
}

// encodeKeyed writes a keyed capture's records in key order after their
// count, each with its part's entry writer.
func encodeKeyed(c *capture, dst []byte) ([]byte, error) {
	sortByKey(c.recs, recKey)
	dst = binary.AppendUvarint(dst, uint64(len(c.recs)))
	for _, r := range c.recs {
		var err error
		if dst, err = c.entry(c, dst, r); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func (t *keyed[R]) load(d *wire.Decoder) { t.read(d) }

// fresh reports whether key k may be loaded: d holds no error and the
// table no k. A repeated key fails d, as a table writes each key once.
func (t *keyed[R]) fresh(d *wire.Decoder, k any) bool {
	if _, dup := t.ids[k]; dup && d.Err() == nil {
		d.Fail(fmt.Errorf("ops: state repeats key %v", k))
	}
	return d.Err() == nil
}

// bytes is the lists' node slab and record table, free slots included,
// and the arrays of the operator's heap.
func (t *keyed[R]) bytes() int {
	if t.heap == nil {
		return t.Lists.Bytes()
	}
	return t.Lists.Bytes() + t.heap.Bytes()
}

// γ's groups: each its key, its open span's left boundary and its live
// elements. The elements are sorted canonically by the encoder — they
// are reloaded by re-insertion, so their order is free, and sorting gives
// consecutive rounds byte-stable encodings where list order would shuffle
// unchanged groups. The aggregate, the expiry entries and the holdback
// entries are rebuilt on load by re-inserting the live elements (for
// invertible aggregates every expired removal has already been applied,
// so the live multiset reproduces the aggregate exactly).
func captureGroup(_ *capture, r *record, g *group) { r.t = g.lb }

func appendGroup(c *capture, dst []byte, r record) ([]byte, error) {
	dst, err := wire.AppendValue(dst, r.key)
	if err != nil {
		return dst, err
	}
	es := c.elems[r.off:r.end]
	sortWire(es)
	return appendElems(binary.AppendVarint(dst, int64(r.t)), es)
}

func (g *GroupBy) readGroups(d *wire.Decoder) {
	var es []temporal.Element
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		key, lb := d.Value(), temporal.Time(d.Varint())
		if es = readElems(d, es); !g.groups.fresh(d, key) {
			return
		}
		if len(es) == 0 {
			d.Fail(fmt.Errorf("ops: group %v holds no elements", key))
			return
		}
		id := g.newGroup(key, lb)
		grp := g.groups.Rec(id)
		for _, e := range es {
			// One expiry entry per live element, pushed in the order the
			// encoding holds them.
			g.expiry.Push(e.End, g.groups.Append(id, e))
			grp.agg.Insert(e.Value)
		}
	}
}

// PartitionedWindow's partitions: each its key and its elements in
// arrival order — that order is the partition's state. The holdback
// entries are rebuilt from the restored heads.
func appendPartition(c *capture, dst []byte, r record) ([]byte, error) {
	dst, err := wire.AppendValue(dst, r.key)
	if err != nil {
		return dst, err
	}
	return appendElems(dst, c.elems[r.off:r.end])
}

func (w *PartitionedWindow) readPartitions(d *wire.Decoder) {
	var es []temporal.Element
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		key := d.Value()
		if es = readElems(d, es); !w.windows.fresh(d, key) {
			return
		}
		if len(es) > w.n { // a window that full would never displace again
			d.Fail(fmt.Errorf("ops: partition %v holds %d elements, the window %d", key, len(es), w.n))
			return
		}
		lb := temporal.MaxTime
		if len(es) > 0 {
			lb = es[0].Start
		}
		id := w.windows.add(key, struct{}{}, lb)
		for _, e := range es {
			w.windows.Append(id, e)
		}
	}
}

// Coalesce's pending spans: each as its element alone (load derives the
// key from the value). The end and holdback entries are rebuilt on load.
func captureSpan(c *capture, _ *record, s *span) { c.elems = append(c.elems, s.value) }

func appendSpan(c *capture, dst []byte, r record) ([]byte, error) {
	return wire.AppendElement(dst, c.elems[r.off])
}

func (c *Coalesce) readSpans(d *wire.Decoder) {
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		e := d.Element()
		if d.Err() != nil {
			return
		}
		if k := c.key(e.Value); c.spans.fresh(d, k) {
			c.open(k, e)
		}
	}
}

// Difference's and Intersect's keys: each its key, value, two counts and
// open span's left boundary.
func captureSetKey(c *capture, r *record, k *setKey) {
	r.t, r.off = k.lb, len(c.vals)
	c.vals = append(c.vals, k.value)
	c.nums = append(c.nums, int64(k.counts[0]), int64(k.counts[1]))
}

func appendSetKey(c *capture, dst []byte, r record) ([]byte, error) {
	dst, err := appendTwo(dst, r.key, c.vals[r.off])
	if err != nil {
		return dst, err
	}
	dst = binary.AppendVarint(binary.AppendVarint(dst, c.nums[2*r.off]), c.nums[2*r.off+1])
	return binary.AppendVarint(dst, int64(r.t)), nil
}

func (o *setOp) readKeys(d *wire.Decoder) {
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		key, value := d.Value(), d.Value()
		k := setKey{key: key, value: value, counts: [2]int{int(d.Varint()), int(d.Varint())}, lb: temporal.Time(d.Varint())}
		if !o.keys.fresh(d, key) {
			return
		}
		if k.counts == [2]int{} { // setExpiry's load checks every other count
			d.Fail(fmt.Errorf("ops: key %v counts no element", key))
			return
		}
		o.keys.add(key, k, k.lb)
	}
}

// setExpiry is Difference's and Intersect's expiry heap as a part,
// written verbatim: which interval ends remain pending per input is not
// recoverable from the counters alone. An entry is written with its key,
// and a load requires every key's entries on each input to match its
// count.
type setExpiry struct{ o *setOp }

func (t setExpiry) capture(c *capture) encoder {
	for end, ev := range t.o.expiry.All() {
		c.recs = append(c.recs, record{key: t.o.keys.Rec(ev.id).key, t: end, off: int(ev.input)})
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

func (t setExpiry) load(d *wire.Decoder) {
	keys := &t.o.keys
	left := make([][2]int, len(keys.ids)) // by id: a fresh table's ids are 0 to n-1
	for _, id := range keys.ids {
		left[id] = keys.Rec(id).counts
	}
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		end, key, input := temporal.Time(d.Varint()), d.Value(), d.Uvarint()
		id, held := keys.ids[key]
		switch {
		case d.Err() != nil:
			return
		case input > 1 || !held || left[id][input] == 0:
			d.Fail(fmt.Errorf("ops: expiry event of key %v on input %d beyond its count", key, input))
			return
		}
		left[id][input]--
		t.o.expiry.Push(end, setEnd{id: id, input: int32(input)})
	}
	for key, id := range keys.ids {
		if left[id] != [2]int{} && d.Err() == nil {
			d.Fail(fmt.Errorf("ops: key %v counts %v elements with no expiry event", key, left[id]))
		}
	}
}

func (t setExpiry) bytes() int { return t.o.expiry.Bytes() }

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
