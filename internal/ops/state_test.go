package ops

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
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

// The allocation budget of a checkpoint snapshot. The capture under the
// barrier copies every live element into one slice whatever the number
// of groups or partitions; the encode closure orders that slice without
// rendering a key and appends every value, cql.Tuple frames included,
// into the writer's buffer. A capture slice per group, a formatted key
// per comparison, or an allocation per encoded value or tuple breaks
// these ceilings, as each did before: 1 003 and 10 003 capture
// allocations, 22.7 and 30.0 encode allocations per group, and, with a
// gob encoder over a reused buffer, 45 to 56 encode allocations for int
// values and 2 054 to 20 066 for tuples.
func TestSnapshotAllocationBudget(t *testing.T) {
	const captureCeiling, encodeCeiling = 8, 4
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
			}{{"group-by", g.SnapshotState}, {"partitioned window", w.SnapshotState}} {
				var fn func([]byte) ([]byte, error)
				var buf []byte
				capture := testing.AllocsPerRun(3, func() { fn, _ = op.snap() })
				// AllocsPerRun's warm-up run grows buf; the measured runs
				// reuse it, as the writer reuses its buffer round after round.
				encode := testing.AllocsPerRun(3, func() {
					var err error
					if buf, err = fn(buf[:0]); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s of %s values, %d groups: capture %.0f allocations, encode %.0f",
					op.name, kind.name, groups, capture, encode)
				if capture > captureCeiling {
					t.Errorf("%s of %s values, %d groups: capture makes %.0f allocations, over its ceiling of %d",
						op.name, kind.name, groups, capture, captureCeiling)
				}
				if encode > encodeCeiling {
					t.Errorf("%s of %s values, %d groups: encode makes %.0f allocations, over its ceiling of %d",
						op.name, kind.name, groups, encode, encodeCeiling)
				}
			}
		}
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
