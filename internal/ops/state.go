// Checkpoint state serialisation for the stateful operators. Each
// operator exposes SnapshotState/LoadState (the structural contract
// internal/ft declares as StateSaver/StateLoader — declared there, not
// here, so ops stays free of an ft import) encoding exactly the
// information a rebuilt operator needs to continue from a barrier cut:
//
//   - SnapshotState is the copy-on-write capture: invoked by the barrier
//     save hook under ProcMu, it copies the live collections — flat slice
//     copies, no canonical ordering, no encoding — and returns a closure
//     that serialises the captured copies later, on the checkpoint
//     writer's goroutine. The closure reads only its captures and the
//     immutable element values (the engine's purity contract), so it runs
//     safely concurrent with post-barrier processing; sorting and the gob
//     encode both move off the barrier stall. A capture allocates O(1)
//     per operator: GroupBy and PartitionedWindow copy every live element
//     into one shared slice and keep one (key, bounds) record per group
//     or partition.
//   - Map-derived collections are encoded in one canonical order (keyCmp,
//     sortByKey), which compares typed keys by value and renders a key
//     only when its kind is outside the typed set — once per key per
//     sort, never inside a comparator.
//   - LoadState runs on a freshly constructed, not-yet-started operator.
//   - Trace slots are dropped: element traces are diagnostic context of
//     the run that produced them and do not survive a crash (restored
//     elements carry an explicit nil trace).
//   - Auxiliary structures derivable from the primary state (group
//     expiry events, holdback heaps, partition heads) are rebuilt rather
//     than serialised; the difference/intersect expiry heap is the one
//     exception — its entries cannot be recovered from the per-key
//     counters — and is serialised verbatim.
//   - Input-done flags and order-buffer done marks are NOT saved:
//     recovery replays every source, so end-of-stream is re-signalled
//     (or not) by the replayed inputs themselves.
package ops

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"

	"pipes/internal/aggregate"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// wireElem is one element on the wire: the value and interval, with the
// trace slot deliberately dropped.
type wireElem struct {
	Value any
	Start temporal.Time
	End   temporal.Time
}

func toWire(es []temporal.Element) []wireElem {
	out := make([]wireElem, len(es))
	for i, e := range es {
		out[i] = wireElem{Value: e.Value, Start: e.Start, End: e.End}
	}
	return out
}

func fromWire(ws []wireElem) []temporal.Element {
	out := make([]temporal.Element, len(ws))
	for i, w := range ws {
		out[i] = temporal.Element{
			Value:    w.Value,
			Interval: temporal.Interval{Start: w.Start, End: w.End},
			Trace:    nil, // traces do not survive a crash
		}
	}
	return out
}

func init() {
	// Concrete types that travel inside the `any` slots of checkpointed
	// state. Users with custom value or key types register them with
	// ft.RegisterType (an alias of gob.Register).
	gob.Register(Pair{})
	gob.Register(GroupResult{})
	gob.Register(globalGroup{})
	gob.Register([]any{}) // MJoin result tuples
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

// sortWire canonically orders a multiset of wire elements whose source
// order is not semantically meaningful (sweep-area contents): by
// interval, then — only within a run of equal intervals, which [NOW]
// windows produce all the time — by the values' renderings.
func sortWire(ws []wireElem) {
	slices.SortFunc(ws, func(a, b wireElem) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.End, b.End)
	})
	for i := 0; i < len(ws); {
		j := i + 1
		for j < len(ws) && ws[j].Start == ws[i].Start && ws[j].End == ws[i].End {
			j++
		}
		if j-i > 1 {
			sortRendered(ws[i:j], func(w wireElem) string { return canonKey(w.Value) })
		}
		i = j
	}
}

// orderBufferState is the serialised form of an orderBuffer: the pending
// (unreleased) results and the per-input watermarks. Done marks are
// re-established by the replayed inputs.
type orderBufferState struct {
	Pending []wireElem
	WM      []temporal.Time
}

// orderBufferCapture is the copy-on-write capture of an orderBuffer:
// plain slice copies taken under ProcMu (xds.Heap.Items returns its
// backing array, so the capture must copy), converted to wire form only
// at encode time.
type orderBufferCapture struct {
	pending []temporal.Element
	wm      []temporal.Time
}

func (b *orderBuffer) capture() orderBufferCapture {
	return orderBufferCapture{
		pending: append([]temporal.Element(nil), b.heap.Items()...),
		wm:      append([]temporal.Time(nil), b.wm...),
	}
}

func (c orderBufferCapture) wire() orderBufferState {
	return orderBufferState{Pending: toWire(c.pending), WM: c.wm}
}

func (b *orderBuffer) loadState(st orderBufferState) {
	for _, e := range fromWire(st.Pending) {
		b.heap.Push(e)
	}
	copy(b.wm, st.WM)
}

// joinState is the serialised form of a Join: both sweep areas plus the
// pending output. Area entry order is not preserved — area semantics are
// insertion-order independent.
type joinState struct {
	Areas [2][]wireElem
	Out   orderBufferState
}

// SnapshotState implements the ft.StateSaver contract: sweep-area and
// order-buffer contents are copied under the barrier (SweepArea.Items
// already returns a fresh slice); ordering and encoding run in the
// closure, off the stall.
func (j *Join) SnapshotState() (func(enc *gob.Encoder) error, error) {
	a0, a1 := j.areas[0].Items(), j.areas[1].Items()
	out := j.out.capture()
	return func(enc *gob.Encoder) error {
		w0, w1 := toWire(a0), toWire(a1)
		sortWire(w0)
		sortWire(w1)
		return enc.Encode(joinState{Areas: [2][]wireElem{w0, w1}, Out: out.wire()})
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (j *Join) LoadState(dec *gob.Decoder) error {
	var st joinState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		for _, e := range fromWire(st.Areas[i]) {
			j.areas[i].Insert(e)
		}
	}
	j.out.loadState(st.Out)
	return nil
}

// groupState is one live group: its key, open-span left boundary and live
// element multiset. The aggregate is rebuilt by re-inserting the live
// elements (for invertible aggregates every expired removal has already
// been applied, so the live multiset reproduces the aggregate exactly).
type groupState struct {
	Key    any
	LB     temporal.Time
	Active []wireElem
}

type groupByState struct {
	Groups []groupState
	Out    orderBufferState
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
// it copies every group's live elements into one slice; the closure
// converts that slice to wire form once and hands each group its
// sub-slice. The live multisets are canonically sorted in the closure
// (they are reloaded by re-insertion, so serialised order is free) — that
// both moves the sort off the barrier and gives consecutive rounds
// byte-stable encodings for the delta chain, where raw heap layout would
// shuffle unchanged groups.
func (g *GroupBy) SnapshotState() (func(enc *gob.Encoder) error, error) {
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
	out := g.out.capture()
	return func(enc *gob.Encoder) error {
		sortByKey(caps, func(c groupCapture) any { return c.key })
		ws := toWire(elems)
		st := groupByState{Groups: make([]groupState, len(caps)), Out: out.wire()}
		for i, c := range caps {
			active := ws[c.off:c.end]
			sortWire(active)
			st.Groups[i] = groupState{Key: c.key, LB: c.lb, Active: active}
		}
		return enc.Encode(st)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (g *GroupBy) LoadState(dec *gob.Decoder) error {
	var st groupByState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	for _, gs := range st.Groups {
		agg := g.factory()
		inv, _ := agg.(aggregate.Invertible)
		grp := &group{
			active: xds.NewHeap[temporal.Element](func(a, b temporal.Element) bool { return a.End < b.End }),
			agg:    agg,
			inv:    inv,
			lb:     gs.LB,
		}
		for _, e := range fromWire(gs.Active) {
			grp.active.Push(e)
			grp.agg.Insert(e.Value)
			// One expiry event per live element: exactly the non-stale
			// subset of the original heap.
			g.expiry.Push(expiryEvent{end: e.End, key: gs.Key})
		}
		g.groups[gs.Key] = grp
		g.lows.Push(lowEntry{lb: grp.lb, key: gs.Key})
	}
	g.out.loadState(st.Out)
	return nil
}

// diffKeyState is one per-key multiplicity record of Difference/Intersect.
type diffKeyState struct {
	Key    any
	Value  any
	Counts [2]int
	LB     temporal.Time
}

// wireDiffExpiry mirrors diffExpiry. The expiry heap is serialised
// verbatim: which interval ends remain pending per input is not
// recoverable from the counters alone.
type wireDiffExpiry struct {
	End   temporal.Time
	Key   any
	Input int
}

type diffOpState struct {
	Keys   []diffKeyState
	Expiry []wireDiffExpiry
	InQ    [2][]wireElem
	Out    orderBufferState
}

// diffCapture is the copy-on-write capture shared by Difference and
// Intersect: per-key records and the expiry heap's backing array copied
// flat; sorting and wire conversion happen in the encode closure.
type diffCapture struct {
	keys   []diffKeyState
	expiry []diffExpiry
	inQ    [2][]temporal.Element
	out    orderBufferCapture
}

func captureDiffLike(state map[any]*diffState, expiry *xds.Heap[diffExpiry], inQ [2]xds.Queue[temporal.Element], out *orderBuffer) diffCapture {
	c := diffCapture{
		expiry: append([]diffExpiry(nil), expiry.Items()...),
		inQ:    [2][]temporal.Element{inQ[0].Items(), inQ[1].Items()},
		out:    out.capture(),
	}
	for k, ds := range state {
		c.keys = append(c.keys, diffKeyState{Key: k, Value: ds.value, Counts: ds.counts, LB: ds.lb})
	}
	return c
}

func (c diffCapture) wire() diffOpState {
	st := diffOpState{
		Keys: c.keys,
		InQ:  [2][]wireElem{toWire(c.inQ[0]), toWire(c.inQ[1])},
		Out:  c.out.wire(),
	}
	sortByKey(st.Keys, func(k diffKeyState) any { return k.Key })
	for _, ev := range c.expiry {
		st.Expiry = append(st.Expiry, wireDiffExpiry{End: ev.end, Key: ev.key, Input: ev.input})
	}
	return st
}

func loadDiffLike(st diffOpState, state map[any]*diffState, expiry *xds.Heap[diffExpiry], lows *xds.Heap[lowEntry], inQ [2]xds.Queue[temporal.Element], out *orderBuffer) {
	for _, ks := range st.Keys {
		state[ks.Key] = &diffState{value: ks.Value, counts: ks.Counts, lb: ks.LB}
		lows.Push(lowEntry{lb: ks.LB, key: ks.Key})
	}
	for _, ev := range st.Expiry {
		expiry.Push(diffExpiry{end: ev.End, key: ev.Key, input: ev.Input})
	}
	for i := 0; i < 2; i++ {
		for _, e := range fromWire(st.InQ[i]) {
			inQ[i].Enqueue(e)
		}
	}
	out.loadState(st.Out)
}

// SnapshotState implements the ft.StateSaver contract for Difference and
// Intersect.
func (d *setOp) SnapshotState() (func(enc *gob.Encoder) error, error) {
	c := captureDiffLike(d.state, d.expiry, d.inQ, d.out)
	return func(enc *gob.Encoder) error { return enc.Encode(c.wire()) }, nil
}

// LoadState implements the ft.StateLoader contract for Difference and
// Intersect.
func (d *setOp) LoadState(dec *gob.Decoder) error {
	var st diffOpState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	loadDiffLike(st, d.state, d.expiry, d.lows, d.inQ, d.out)
	return nil
}

// unionState is the serialised form of a Union: only the pending output.
type unionState struct {
	Out orderBufferState
}

// SnapshotState implements the ft.StateSaver contract.
func (u *Union) SnapshotState() (func(enc *gob.Encoder) error, error) {
	out := u.out.capture()
	return func(enc *gob.Encoder) error { return enc.Encode(unionState{Out: out.wire()}) }, nil
}

// LoadState implements the ft.StateLoader contract.
func (u *Union) LoadState(dec *gob.Decoder) error {
	var st unionState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	u.out.loadState(st.Out)
	return nil
}

// countWindowState is the serialised form of a CountWindow: the not-yet-
// displaced elements in arrival order.
type countWindowState struct {
	Buf []wireElem
}

// SnapshotState implements the ft.StateSaver contract. Arrival order is
// the state (displacement order), so the capture is the queue copy as-is.
func (w *CountWindow) SnapshotState() (func(enc *gob.Encoder) error, error) {
	buf := w.buf.Items()
	return func(enc *gob.Encoder) error { return enc.Encode(countWindowState{Buf: toWire(buf)}) }, nil
}

// LoadState implements the ft.StateLoader contract.
func (w *CountWindow) LoadState(dec *gob.Decoder) error {
	var st countWindowState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	for _, e := range fromWire(st.Buf) {
		w.buf.Enqueue(e)
	}
	return nil
}

// mjoinState is the serialised form of an MJoin: one area per input plus
// the pending output, areas in canonical order like joinState.
type mjoinState struct {
	Areas [][]wireElem
	Out   orderBufferState
}

// SnapshotState implements the ft.StateSaver contract.
func (m *MJoin) SnapshotState() (func(enc *gob.Encoder) error, error) {
	areas := make([][]temporal.Element, len(m.areas))
	for i, a := range m.areas {
		areas[i] = a.Items()
	}
	out := m.out.capture()
	return func(enc *gob.Encoder) error {
		st := mjoinState{Areas: make([][]wireElem, len(areas)), Out: out.wire()}
		for i, es := range areas {
			ws := toWire(es)
			sortWire(ws)
			st.Areas[i] = ws
		}
		return enc.Encode(st)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (m *MJoin) LoadState(dec *gob.Decoder) error {
	var st mjoinState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	for i, ws := range st.Areas {
		if i >= len(m.areas) {
			break
		}
		for _, e := range fromWire(ws) {
			m.areas[i].Insert(e)
		}
	}
	m.out.loadState(st.Out)
	return nil
}

// partitionState is one partition of a PartitionedWindow, in arrival
// order; the heads heap is rebuilt from the restored queue heads.
type partitionState struct {
	Key   any
	Elems []wireElem
}

type partWindowState struct {
	Parts []partitionState
	Out   orderBufferState
}

// partCapture is one partition's record in a flat capture: its key and
// the bounds of its elements in the capture's shared element slice. The
// elements stay in arrival order — that order IS the partition's state.
type partCapture struct {
	key      any
	off, end int
}

// SnapshotState implements the ft.StateSaver contract, capturing flat
// like GroupBy's.
func (w *PartitionedWindow) SnapshotState() (func(enc *gob.Encoder) error, error) {
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
	out := w.out.capture()
	return func(enc *gob.Encoder) error {
		sortByKey(caps, func(c partCapture) any { return c.key })
		ws := toWire(elems)
		st := partWindowState{Parts: make([]partitionState, len(caps)), Out: out.wire()}
		for i, c := range caps {
			st.Parts[i] = partitionState{Key: c.key, Elems: ws[c.off:c.end]}
		}
		return enc.Encode(st)
	}, nil
}

// LoadState implements the ft.StateLoader contract.
func (w *PartitionedWindow) LoadState(dec *gob.Decoder) error {
	var st partWindowState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	for _, ps := range st.Parts {
		q := xds.NewQueue[temporal.Element]()
		for _, e := range fromWire(ps.Elems) {
			q.Enqueue(e)
		}
		w.part[ps.Key] = q
		if head, ok := q.Peek(); ok {
			w.heads.Push(partHead{start: head.Start, key: ps.Key})
		}
	}
	w.out.loadState(st.Out)
	return nil
}
