package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

type registered struct{ N int32 }

type unregistered struct{ N int32 }

func init() { RegisterType(registered{}) }

func TestValueRoundTrip(t *testing.T) {
	for _, v := range []any{
		nil, true, false, 0, -1, math.MaxInt, int64(math.MinInt64), uint64(math.MaxUint64),
		2.5, math.Inf(-1), "", "héllo",
		[]any{}, []any{1, "a", []any{nil}}, map[string]any{}, map[string]any{"b": 1, "a": []any{2.5}},
		registered{N: 7},
	} {
		b, err := AppendValue([]byte("prefix"), v)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		if string(b[:6]) != "prefix" {
			t.Fatalf("%#v: the encoding overwrote what dst held", v)
		}
		d := NewDecoder(b[6:])
		got := d.Value()
		if err := d.Finish(); err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip of %#v gave %#v", v, got)
		}
	}
}

// A map encodes the same whatever its iteration order: the checkpoint
// delta chain compares rounds byte for byte.
func TestMapEncodingDeterministic(t *testing.T) {
	m := map[string]any{}
	for _, k := range strings.Fields("q w e r t y u i o p a s d f g h j k l") {
		m[k] = k
	}
	want, _ := AppendValue(nil, m)
	for i := 0; i < 20; i++ {
		if got, _ := AppendValue(nil, m); string(got) != string(want) {
			t.Fatal("a map encoded two ways")
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	deep := []byte{}
	for i := 0; i <= maxDepth; i++ {
		deep = append(deep, tagSlice, 1)
	}
	deep = append(deep, tagNil)
	for name, b := range map[string][]byte{
		"empty":           {},
		"unknown tag":     {0xff},
		"bad bool":        {tagBool, 2},
		"truncated float": {tagFloat64, 1, 2, 3},
		"long string":     {tagString, 5, 'a'},
		"huge count":      {tagSlice, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"left over":       {tagNil, tagNil},
		"too deep":        deep,
		"bad gob":         {tagGob, 2, 0xff, 0xff},
	} {
		d := NewDecoder(b)
		d.Value()
		if d.Finish() == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestAppendUnregisteredType(t *testing.T) {
	if _, err := AppendValue(nil, unregistered{}); err == nil {
		t.Fatal("an unregistered type encoded")
	}
}
