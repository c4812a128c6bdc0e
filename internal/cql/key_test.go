package cql

import (
	"math"
	"testing"
)

// Values the comparison kernel calls equal must meet under one key, and
// the composite rendering must draw exactly the same classes.
func TestKeyNormalisation(t *testing.T) {
	classes := [][]any{
		{5, int64(5), 5.0, float32(5), uint8(5), int32(5)},
		{"5"},
		{5.5, float32(5.5)},
		{0, -0.0, 0.0, int64(0)},
		{math.NaN(), math.NaN()},
		{int64(1) << 60, float64(int64(1) << 60)},
		{math.Inf(1)},
		{1e300},
		{nil},
		{true},
		{false},
		{"true"},
		{"<nil>"},
		{"NaN"},
		{""},
		{[2]int{1, 2}, [2]int{1, 2}},
		{[]int{1, 2}},   // not comparable itself: must not panic as a map key
		{"[]int{1, 2}"}, // a string that reads like that slice is not it
	}
	seen := map[any]int{}
	rendered := map[string]int{}
	for ci, class := range classes {
		for _, v := range class {
			k := Key(v)
			if prev, ok := seen[k]; ok && prev != ci {
				t.Errorf("Key(%#v) = %#v collides with class %d", v, k, prev)
			}
			seen[k] = ci
			r := string(AppendKey(nil, v))
			if prev, ok := rendered[r]; ok && prev != ci {
				t.Errorf("AppendKey(%#v) = %q collides with class %d", v, r, prev)
			}
			rendered[r] = ci
		}
		if k0 := Key(class[0]); len(class) > 1 {
			for _, v := range class[1:] {
				if Key(v) != k0 {
					t.Errorf("Key(%#v) = %#v, want %#v like %#v", v, Key(v), k0, class[0])
				}
				if string(AppendKey(nil, v)) != string(AppendKey(nil, class[0])) {
					t.Errorf("AppendKey(%#v) differs from AppendKey(%#v)", v, class[0])
				}
			}
		}
	}
	// A quoted string cannot forge the separator a composite key puts
	// between columns.
	a := AppendKey(append(AppendKey(nil, "x\x1fy"), '\x1f'), "z")
	b := AppendKey(append(AppendKey(nil, "x"), '\x1f'), "y\x1fz")
	if string(a) == string(b) {
		t.Errorf("composite keys collide: %q", a)
	}
}

// The hot cases keep the value the source boxed: no allocation per key.
func TestKeyOfSourceValuesDoesNotAllocate(t *testing.T) {
	for _, v := range []any{1234567, 12.5, "bidder", nil, true} {
		if allocs := testing.AllocsPerRun(100, func() { _ = Key(v) }); allocs != 0 {
			t.Errorf("Key(%#v) allocates %.0f times", v, allocs)
		}
	}
}
