package ops

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
	"pipes/internal/ft"
	"pipes/internal/temporal"
	"pipes/internal/wire"
)

// snapshotBytes runs op's snapshot handle, as the checkpoint writer
// does.
func snapshotBytes(t testing.TB, op interface {
	SnapshotState() (func(dst []byte) ([]byte, error), error)
}) []byte {
	t.Helper()
	fn, err := op.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fn(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// roundAllocs runs checkpoint rounds of snap as the writer does —
// capture, then the closure's one encode into a reused buffer — and
// returns the fewest allocations of a capture into new buffers (drop
// lets the kept ones go first), of a capture into kept buffers and of an
// encode, each over five rounds. The fewest, because the count is the
// process's: a garbage collection that starts inside a measured call, or
// the race runtime under load, only adds allocations to it, never takes
// any away, so the smallest round is the call's own count. No test in
// this package leaves a goroutine running to add them; the median of
// five once read 10 for a cold capture that counts 8 under -race.
func roundAllocs(t *testing.T, snap func() (func([]byte) ([]byte, error), error), drop func() int) (cold, warm, encode uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var buf []byte
	round := func() (capture, encode uint64) {
		m0 := mallocs()
		fn, err := snap()
		if err != nil {
			t.Fatal(err)
		}
		m1 := mallocs()
		if buf, err = fn(buf[:0]); err != nil {
			t.Fatal(err)
		}
		return m1 - m0, mallocs() - m1
	}
	const rounds = 5
	var colds, warms, encodes [rounds]uint64
	for i := range colds {
		drop()
		colds[i], _ = round()
	}
	for i := range warms {
		warms[i], encodes[i] = round()
	}
	fewest := func(a [rounds]uint64) uint64 { return slices.Min(a[:]) }
	return fewest(colds), fewest(warms), fewest(encodes)
}

// The allocation budget of a checkpoint round. The first capture copies
// every live element into one slice whatever the number of groups or
// partitions; later captures reuse the buffers the previous round's
// encode handed back, so they allocate only their lease and closure. The
// encode closure orders the copy without rendering a key and appends
// every value, cql.Tuple frames included, into the writer's buffer. A
// capture slice per group, a formatted key per comparison, or an
// allocation per encoded value or tuple breaks these ceilings, as each
// did before: 1 003 and 10 003 capture allocations, 22.7 and 30.0 encode
// allocations per group, and, with a gob encoder over a reused buffer, 45
// to 56 encode allocations for int values and 2 054 to 20 066 for tuples.
// So does a capture that copies into new buffers every round, as each did
// before its buffers were kept: 4 allocations a round, two of them the
// size of the state.
func TestSnapshotAllocationBudget(t *testing.T) {
	const coldCeiling, captureCeiling, encodeCeiling = 8, 2, 4
	for _, kind := range []struct {
		name  string
		value func(i int) any
		key   KeyFunc
	}{
		{"int", func(i int) any { return i }, func(v any) any { return v }},
		{"tuple", func(i int) any { return cql.Tuple{"k": i, "v": float64(i)} }, func(v any) any { return v.(cql.Tuple)["k"] }},
	} {
		for _, groups := range []int{1000, 10000} {
			g := NewGroupBy("g", kind.key, aggregate.NewCount, nil)
			w := NewPartitionedWindow("w", kind.key, 2)
			in := make(temporal.Batch, 0, 2*groups)
			for i := 0; i < 2*groups; i++ {
				in = append(in, el(kind.value(i%groups), temporal.Time(i), temporal.Time(i+4*groups)))
			}
			g.ProcessBatch(in, 0)
			w.ProcessBatch(in, 0)

			for _, op := range []struct {
				name string
				snap func() (func([]byte) ([]byte, error), error)
				drop func() int
			}{{"group-by", g.SnapshotState, g.snaps.drop}, {"partitioned window", w.SnapshotState, w.snaps.drop}} {
				cold, warm, encode := roundAllocs(t, op.snap, op.drop)
				t.Logf("%s of %s values, %d groups: capture %d allocations into new buffers, %d into kept ones, encode %d",
					op.name, kind.name, groups, cold, warm, encode)
				for _, c := range []struct {
					what    string
					n       uint64
					ceiling uint64
				}{{"a capture into new buffers", cold, coldCeiling}, {"a capture into kept buffers", warm, captureCeiling}, {"an encode", encode, encodeCeiling}} {
					if c.n > c.ceiling {
						t.Errorf("%s of %s values, %d groups: %s makes %d allocations, over its ceiling of %d",
							op.name, kind.name, groups, c.what, c.n, c.ceiling)
					}
				}
			}
		}
	}

	// A state that grows by one group a round outgrows its kept buffers
	// every round. They grow geometrically, so over 256 rounds they are
	// reallocated in about log(rounds) of them, where an exact-size
	// buffer a round was reallocated in each.
	const rounds = 256
	g := NewGroupBy("g", func(v any) any { return v }, aggregate.NewCount, nil)
	var buf []byte
	var caps, last []int
	grew := 0
	for r := range rounds {
		g.ProcessBatch(temporal.Batch{el(r, temporal.Time(r), 2*rounds)}, 0)
		fn, err := g.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = fn(buf[:0]); err != nil {
			t.Fatal(err)
		}
		caps = caps[:0]
		for _, c := range g.snaps.spare {
			caps = append(caps, cap(c.elems), cap(c.recs), cap(c.vals), cap(c.nums))
		}
		if last != nil && !slices.Equal(caps, last) {
			grew++
		}
		last = append(last[:0], caps...)
	}
	t.Logf("a state growing by one group a round: its kept buffers grew in %d of %d rounds", grew, rounds)
	if limit := 4 * 8; grew > limit {
		t.Errorf("a state growing by one group a round: its kept buffers grew in %d of %d rounds, over 4·log2(rounds) = %d", grew, rounds, limit)
	}
}

// feedRound feeds c's input shifted r rounds later in time, so every
// round adds state behind the one before it.
func (c stateCase) feedRound(op statefulOp, r int) {
	shift := temporal.Time(100 * r)
	for _, s := range c.feed {
		e := s.e
		e.Start += shift
		if e.End != temporal.MaxTime {
			e.End += shift
		}
		op.ProcessBatch(temporal.Batch{e}, s.input)
	}
}

// Round after round an operator's captures reuse one set of buffers, and
// the operator processes the next round's input while the writer encodes
// the last capture. Every round's closure must still write the state at
// its own cut: the bytes ft.EncodeState, which captures and encodes at
// once, writes there.
func TestRecycledCapturesEncodeTheirCut(t *testing.T) {
	const rounds = 5
	for _, c := range stateCases() {
		t.Run(c.name, func(t *testing.T) {
			op := c.make()
			c.feedRound(op, 0)
			var buf []byte
			for r := 1; r <= rounds; r++ {
				want, err := ft.EncodeState(op)
				if err != nil {
					t.Fatal(err)
				}
				fn, err := op.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				encoded := make(chan error)
				go func() {
					var err error
					buf, err = fn(buf[:0])
					encoded <- err
				}()
				c.feedRound(op, r) // post-barrier processing, beside the encode
				if err := <-encoded; err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("round %d encoded\n\t%x\nthe cut's state is\n\t%x", r, buf, want)
				}
			}
		})
	}
}

// An encode closure runs at most once: its call hands the capture's
// buffers back for the next round, so a second call fails, and it does
// not disturb the capture that took the buffers over.
func TestEncodeClosureRunsOnce(t *testing.T) {
	for _, c := range stateCases() {
		op := c.make()
		c.feedRound(op, 0)
		fn, err := op.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		first, err := fn(nil)
		if err != nil {
			t.Fatal(err)
		}
		next, err := op.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fn(nil); !errors.Is(err, errEncodedTwice) {
			t.Errorf("%s: a second encode call returned %v, want %v", c.name, err, errEncodedTwice)
		}
		if again, err := next(nil); err != nil || !bytes.Equal(again, first) {
			t.Errorf("%s: the next capture encoded %x (%v), want %x", c.name, again, err, first)
		}
	}
}

// The buffers a round hands back count in MemoryUsage, and a
// memory-manager shed releases them before it drops any element.
func TestKeptCaptureCountsAndShedsFirst(t *testing.T) {
	identity := func(v any) any { return v }
	j := NewEquiJoin("j", identity, identity, nil)
	g := NewGroupBy("g", identity, aggregate.NewCount, nil)
	for i := 0; i < 200; i++ {
		e := el(i%50, temporal.Time(i), temporal.Time(i+1000))
		j.ProcessBatch(temporal.Batch{e}, i%2)
		g.ProcessBatch(temporal.Batch{e}, 0)
	}
	for _, op := range []interface {
		statefulOp
		MemoryUsage() int
	}{j, g} {
		before := op.MemoryUsage()
		snapshotBytes(t, op)
		if op.MemoryUsage() <= before {
			t.Errorf("%T: MemoryUsage %d after a round, %d before: the kept capture is not counted", op, op.MemoryUsage(), before)
		}
	}

	j.snaps.drop()
	before, entries := j.MemoryUsage(), j.StateSize()
	snapshotBytes(t, j)
	held := j.MemoryUsage() - before
	if freed := j.ShedBytes(1); freed != held {
		t.Errorf("shed freed %d bytes, the kept capture holds %d", freed, held)
	}
	if j.StateSize() != entries {
		t.Errorf("shed dropped %d entries while a kept capture was there to free", entries-j.StateSize())
	}
	if j.MemoryUsage() != before {
		t.Errorf("MemoryUsage %d after the shed, %d before the round", j.MemoryUsage(), before)
	}
	if j.ShedBytes(1); j.StateSize() >= entries {
		t.Errorf("with no kept capture, a shed dropped no entry (%d stored)", j.StateSize())
	}
}

// A set operation's expiry entries name their key's record, so a state
// whose entries and counts disagree is refused: an entry beyond its key's
// count, one of a key the state does not hold, a count no entry stands
// for, and a key that counts no element.
func TestSetStateRejectsUnmatchedExpiry(t *testing.T) {
	state := func(c0 int64, events ...any) []byte {
		b, _ := appendTwo([]byte{1}, "a", "a") // one key, its value
		b = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(b, c0), 0), 1)
		b = binary.AppendUvarint(b, uint64(len(events)))
		for _, k := range events {
			b, _ = wire.AppendValue(binary.AppendVarint(b, 9), k)
			b = append(b, 0) // input 0
		}
		return append(b, 0, 0, 0, 1, 0) // empty arrival queues and order buffer, watermark 0
	}
	if err := NewDifference("d", nil).LoadState(state(1, "a")); err != nil {
		t.Fatalf("a consistent state: %v", err)
	}
	for name, s := range map[string][]byte{
		"an entry beyond its key's count": state(1, "a", "a"),
		"an entry of a key not held":      state(1, "b"),
		"a count with no entry":           state(2, "a"),
		"a key that counts no element":    state(0),
	} {
		if err := NewDifference("d", nil).LoadState(s); err == nil {
			t.Errorf("a state with %s loaded", name)
		}
	}
}

// A partition holding more elements than its window has rows is refused:
// the window displaces only when a partition is exactly full, so a ROWS 2
// window loading a ROWS 5 partition would keep every later element too.
func TestPartitionStateRejectsOverfullWindow(t *testing.T) {
	key := func(any) any { return 0 }
	rows5 := NewPartitionedWindow("w", key, 5)
	for i := range 5 {
		rows5.ProcessBatch(temporal.Batch{el(i, temporal.Time(i), temporal.Time(i))}, 0)
	}
	state := snapshotBytes(t, rows5)
	if err := NewPartitionedWindow("w", key, 5).LoadState(state); err != nil {
		t.Fatalf("a full partition: %v", err)
	}
	if err := NewPartitionedWindow("w", key, 2).LoadState(state); err == nil {
		t.Fatal("a ROWS 2 window loaded a partition of 5 elements")
	}
}

// otherKey is a key of a kind outside keyCmp's typed set.
type otherKey struct{ N int64 }

func init() { wire.RegisterType(otherKey{}) }

// canonCmp is the order sortByKey induces: keyCmp, then renderings for
// two keys outside the typed set.
func canonCmp(a, b any) int {
	if c := keyCmp(a, b); c != 0 || keyRank(a) != rankOther {
		return c
	}
	return cmp.Compare(canonKey(a), canonKey(b))
}

// sameKey is map-key equality, under which every NaN is its own key but
// the order cannot tell two of them apart.
func sameKey(a, b any) bool {
	if x, ok := a.(float64); ok && x != x {
		y, ok := b.(float64)
		return ok && y != y
	}
	return a == b
}

// TestKeyOrderTotal walks every kind cql.Key emits, plus a key of another
// kind, in canonical order: kind first, then value.
func TestKeyOrderTotal(t *testing.T) {
	keys := []any{
		nil,
		false, true,
		math.MinInt, -1, 0, 5, math.MaxInt,
		int64(math.MinInt64), int64(3),
		uint64(0), uint64(0x7ff8000000000001), // cql's NaN sentinel
		math.Inf(-1), -0.5, 2.5, math.Inf(1),
		"", "\x00main.T{A:1}", "5", "a", "b",
		otherKey{7},
	}
	for i, a := range keys {
		for j, b := range keys {
			if got, want := keyCmp(a, b), cmp.Compare(i, j); got != want {
				t.Errorf("keyCmp(%#v, %#v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// FuzzKeyOrder checks the three order laws of the canonical key order
// over mixed-kind triples, and that sortByKey produces that order.
func FuzzKeyOrder(f *testing.F) {
	f.Add(uint8(2), int64(5), "", uint8(3), int64(5), "", uint8(5), int64(0), "")
	f.Add(uint8(6), int64(0), "a", uint8(6), int64(0), "\x00a", uint8(7), int64(-1), "")
	f.Add(uint8(4), int64(-1), "", uint8(5), int64(0x7ff8000000000001), "", uint8(1), int64(1), "")
	f.Add(uint8(7), int64(2), "", uint8(7), int64(10), "", uint8(0), int64(0), "")
	key := func(kind uint8, n int64, s string) any {
		switch kind % 8 {
		case 0:
			return nil
		case 1:
			return n&1 == 1
		case 2:
			return int(n)
		case 3:
			return n
		case 4:
			return uint64(n)
		case 5:
			return math.Float64frombits(uint64(n))
		case 6:
			return s
		}
		return otherKey{n}
	}
	f.Fuzz(func(t *testing.T, ka uint8, na int64, sa string, kb uint8, nb int64, sb string, kc uint8, nc int64, sc string) {
		ks := []any{key(ka, na, sa), key(kb, nb, sb), key(kc, nc, sc)}
		for _, a := range ks {
			for _, b := range ks {
				ab, ba := canonCmp(a, b), canonCmp(b, a)
				if ab != -ba {
					t.Fatalf("not antisymmetric: %#v vs %#v gives %d, reverse %d", a, b, ab, ba)
				}
				if (ab == 0) != sameKey(a, b) {
					t.Fatalf("%#v vs %#v gives %d", a, b, ab)
				}
				for _, c := range ks {
					if ab <= 0 && canonCmp(b, c) <= 0 && canonCmp(a, c) > 0 {
						t.Fatalf("not transitive: %#v <= %#v <= %#v but not %#v <= %#v", a, b, c, a, c)
					}
				}
			}
		}
		sortByKey(ks, func(k any) any { return k })
		if !slices.IsSortedFunc(ks, canonCmp) {
			t.Fatalf("sortByKey left %#v out of order", ks)
		}
	})
}

// orderFeed is a group-by input whose groups mix every key kind, with
// equal-interval runs inside a group that only the values' renderings
// order. perm picks the arrival order among the elements of one instant.
func orderFeed(perm func(n int, swap func(i, j int))) temporal.Batch {
	keys := []any{3, -2, int64(1 << 40), uint64(9), 0.25, "x", "", true, otherKey{1}, otherKey{-4}}
	var in temporal.Batch
	for ts := temporal.Time(0); ts < 4; ts++ {
		var step temporal.Batch
		for _, k := range keys {
			for r := 0; r < 3; r++ {
				step = append(step, el(Pair{Left: k, Right: r}, ts, ts+10))
			}
		}
		perm(len(step), func(i, j int) { step[i], step[j] = step[j], step[i] })
		in = append(in, step...)
	}
	return in
}

func newOrderGroupBy() *GroupBy {
	return NewGroupBy("g", func(v any) any { return v.(Pair).Left }, aggregate.NewCount, nil)
}

// TestSnapshotOrderDeterministic: the encoding is a pure function of the
// state — two group-bys fed one multiset in different arrival orders
// encode byte-identically — and loads back to a group-by that encodes the
// same bytes again.
func TestSnapshotOrderDeterministic(t *testing.T) {
	a, b := newOrderGroupBy(), newOrderGroupBy()
	a.ProcessBatch(orderFeed(func(int, func(i, j int)) {}), 0)
	b.ProcessBatch(orderFeed(func(n int, swap func(i, j int)) {
		for i := 0; i < n/2; i++ {
			swap(i, n-1-i)
		}
	}), 0)
	want := snapshotBytes(t, a)
	if got := snapshotBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("the same state in another arrival order encodes differently")
	}
	c := newOrderGroupBy()
	if err := c.LoadState(want); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, c); !bytes.Equal(got, want) {
		t.Fatal("a loaded state encodes differently from the one it was loaded from")
	}
}

// Every stateful operator reports what it holds: after its feed,
// MemoryUsage is positive, and before any checkpoint round it is the room
// its containers have allocated — element and list-node slabs with their
// free slots, the keyed tables' record slabs, slot, expiry, end and
// holdback heap arrays, 64 bytes an element in an arrival queue.
// A node that has released every pending result keeps its slab, so it
// still reports it. The method is asserted through an interface, so an
// operator without one fails here.
func TestEveryStatefulOperatorReportsMemory(t *testing.T) {
	want := map[string]int{
		"join": 880, "mjoin": 928, "groupby": 928, "difference": 736, "intersect": 520,
		"union": 64, "coalesce": 616, "distinct": 696,
	}
	for _, c := range stateCases() {
		op := c.make()
		c.feedRound(op, 0)
		m, ok := op.(interface{ MemoryUsage() int })
		if !ok {
			t.Errorf("%s (%T) reports no MemoryUsage", c.name, op)
			continue
		}
		got := m.MemoryUsage()
		if got <= 0 {
			t.Errorf("%s holds state but reports MemoryUsage %d", c.name, got)
		}
		if w, ok := want[c.name]; ok && got != w {
			t.Errorf("%s reports MemoryUsage %d before any round, want %d", c.name, got, w)
		}
		core, ok := op.(interface {
			pending() int
			buffered() int
			Inputs() int
			Done(input int)
		})
		if !ok || core.pending() == 0 {
			continue
		}
		for i := range core.Inputs() {
			core.Done(i)
		}
		if n := core.buffered(); n != 0 {
			t.Fatalf("%s holds %d pending results after the end of its inputs", c.name, n)
		}
		if got := m.MemoryUsage(); got <= 0 {
			t.Errorf("%s released its pending results and reports MemoryUsage %d, not its slab", c.name, got)
		}
	}
}
