package cql

import (
	"reflect"
	"testing"

	"pipes/internal/wire"
)

// fallbackVal exercises the codec's gob fallback: a type outside the
// tagged set.
type fallbackVal struct{ N int32 }

func init() { wire.RegisterType(fallbackVal{}) }

// decodeValue reads back one value AppendValue wrote, requiring every
// byte to be consumed.
func decodeValue(t *testing.T, b []byte) any {
	t.Helper()
	d := wire.NewDecoder(b)
	v := d.Value()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTupleGobRoundTrip(t *testing.T) {
	in := Tuple{
		"i":   42,
		"neg": -7,
		"i64": int64(1 << 40),
		"f":   3.25,
		"s":   "oakland",
		"b":   true,
		"b2":  false,
		"fb":  fallbackVal{N: 9},
	}
	b, err := wire.AppendValue(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := decodeValue(t, b).(Tuple)
	if !ok || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %#v\n out %#v", in, out)
	}
	// Type identity must survive exactly: int stays int, int64 stays int64.
	if _, ok := out["i"].(int); !ok {
		t.Fatalf("int field decoded as %T", out["i"])
	}
	if _, ok := out["i64"].(int64); !ok {
		t.Fatalf("int64 field decoded as %T", out["i64"])
	}
}

// A tuple in the any slots of the codec's containers keeps its type.
func TestTupleGobInsideInterface(t *testing.T) {
	in := []any{Tuple{"speed": 61.5, "lane": 4}, map[string]any{"t": Tuple{"x": nil}}}
	b, err := wire.AppendValue(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if out := decodeValue(t, b); !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %#v vs %#v", out, in)
	}
}

func TestTupleGobEmptyAndNil(t *testing.T) {
	for _, in := range []Tuple{{}, nil} {
		b, err := wire.AppendValue(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := decodeValue(t, b).(Tuple); !ok || len(out) != 0 {
			t.Fatalf("expected an empty tuple, got %#v", out)
		}
	}
}

func TestTupleGobTruncatedFrame(t *testing.T) {
	full, err := wire.AppendValue(nil, Tuple{"direction": "oakland", "speed": 55.0})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		d := wire.NewDecoder(full[:cut])
		if out := d.Value(); d.Finish() == nil {
			t.Fatalf("truncation at %d of %d decoded without error: %#v", cut, len(full), out)
		}
	}
}
