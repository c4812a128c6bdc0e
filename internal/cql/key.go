package cql

import (
	"fmt"
	"math"
	"strconv"

	"pipes/internal/aggregate"
)

// Grouping, equi-join and partition keys are map keys inside operators
// and travel in checkpoints, so they must be comparable kinds the state
// codec tags (internal/wire), and
// values the comparison kernel calls equal must meet under them: 5,
// int64(5) and 5.0 are one key, "5" is another (SEMANTICS.md §5).

// keyClass is the canonical form of one key column.
type keyClass uint8

const (
	keyNil keyClass = iota
	keyInt
	keyFloat // finite, non-integral, or outside int64
	keyNaN
	keyString
	keyBool
	keyOther
)

func classify(v any) (c keyClass, i int64, f float64) {
	switch x := v.(type) {
	case nil:
		return keyNil, 0, 0
	case string:
		return keyString, 0, 0
	case bool:
		return keyBool, 0, 0
	case int:
		return keyInt, int64(x), 0
	case int64:
		return keyInt, x, 0
	}
	f, ok := aggregate.ToFloat(v)
	switch {
	case !ok:
		return keyOther, 0, 0
	case f != f:
		return keyNaN, 0, 0
	case f == math.Trunc(f) && f >= -1<<63 && f < 1<<63:
		return keyInt, int64(f), 0
	}
	return keyFloat, 0, f
}

// nanKey stands in for NaN, which as a map key would never be found
// again; no other input normalises to a uint64.
const nanKey = uint64(0x7ff8000000000001)

// Key normalises one evaluated key column. Integral numbers of any type
// become int (int64 where int is narrower and the value does not fit),
// other numbers float64; strings, bools and nil are themselves; any other
// value is rendered, off the hot path, so that it stays comparable.
func Key(v any) any {
	switch c, i, f := classify(v); c {
	case keyInt:
		if _, ok := v.(int); ok {
			return v
		}
		if int64(int(i)) == i {
			return int(i)
		}
		return i
	case keyFloat:
		if _, ok := v.(float64); ok {
			return v
		}
		return f
	case keyNaN:
		return nanKey
	case keyOther:
		return renderOther(v)
	}
	return v
}

// AppendKey appends the rendering of one column of a composite key:
// Key(a) == Key(b) exactly when the renderings are equal. Strings are
// quoted, so no separator a caller puts between columns can be forged.
func AppendKey(buf []byte, v any) []byte {
	switch c, i, f := classify(v); c {
	case keyNil:
		return append(buf, "<nil>"...)
	case keyInt:
		return strconv.AppendInt(buf, i, 10)
	case keyFloat:
		return strconv.AppendFloat(buf, f, 'g', -1, 64)
	case keyNaN:
		return append(buf, "NaN"...)
	case keyString:
		return strconv.AppendQuote(buf, v.(string))
	case keyBool:
		return strconv.AppendBool(buf, v.(bool))
	}
	return append(buf, renderOther(v)...)
}

// renderOther keeps a value of a type the engine has no key form for
// (a struct, a slice) usable as a key. The NUL prefix keeps it apart
// from every string key.
func renderOther(v any) string { return "\x00" + fmt.Sprintf("%#v", v) }
