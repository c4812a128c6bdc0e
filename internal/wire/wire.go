// Package wire is the engine's one value codec. Checkpoint state
// (internal/ops through internal/ft) and the remote stream format
// (internal/remote) both write values with it: a one-byte tag and a
// payload, appended to a buffer the caller owns and reuses. A Decoder
// reads from a byte slice and stops at the first error; a truncation, an
// unknown tag or an unregistered type is an error, never a panic.
//
// Tags are fixed, because they are part of what a checkpoint persists
// (ft.StateVersion):
//
//   - nil, bool, int, int64, uint64, float64, string, []any and
//     map[string]any;
//   - the engine's own value types, each registered under its tag by the
//     package that owns it (Register);
//   - one fallback: any other value as a nested gob stream, for the types
//     applications register through RegisterType.
//
// Map keys are written in byte order, so an encoding is a pure function
// of the value: the frame-size differential (internal/harness) compares
// snapshots byte for byte.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"slices"

	"pipes/internal/temporal"
)

const (
	tagNil     byte = iota
	tagBool         // one byte, 0 or 1
	tagInt          // varint
	tagInt64        // varint
	tagUint64       // uvarint
	tagFloat64      // 8 bytes, little-endian IEEE 754
	tagString       // uvarint length, bytes
	tagSlice        // []any: uvarint count, values
	tagMap          // map[string]any: see AppendMap
	tagGob          // uvarint length, a gob stream of one interface value
)

// The tags of the engine's value types. Each is registered by the package
// that owns the type.
const (
	TagTuple       byte = 16 + iota // cql.Tuple
	TagPair                         // ops.Pair
	TagGroupResult                  // ops.GroupResult
	TagGlobalGroup                  // the key of an ungrouped ops.GroupBy
)

// maxDepth bounds the nesting of a decoded value, so corrupt input cannot
// recurse without limit.
const maxDepth = 64

type codec struct {
	tag byte
	enc func(dst []byte, v any) ([]byte, error)
}

// The registration tables, filled by init functions.
var (
	encoders = map[reflect.Type]codec{}
	decoders [256]func(d *Decoder) any
)

// Register makes values of type T encodable under tag: enc appends a
// value's payload, dec reads it back. The package that owns T calls it
// from init. T is also registered with gob, so a T nested inside a
// fallback value still travels.
func Register[T any](tag byte, enc func(dst []byte, v T) ([]byte, error), dec func(d *Decoder) T) {
	t := reflect.TypeFor[T]()
	if tag < TagTuple || decoders[tag] != nil || encoders[t].enc != nil {
		panic(fmt.Sprintf("wire: %v cannot take tag %d", t, tag))
	}
	encoders[t] = codec{tag: tag, enc: func(dst []byte, v any) ([]byte, error) { return enc(dst, v.(T)) }}
	decoders[tag] = func(d *Decoder) any { return dec(d) }
	var zero T
	gob.Register(zero)
}

// RegisterType makes a concrete value type outside the tagged set
// encodable through the gob fallback (gob.Register).
func RegisterType(v any) { gob.Register(v) }

// AppendValue appends v's tag and payload to dst. A value of a type that
// is neither tagged nor registered is an error; on any error the returned
// slice holds a partial encoding.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(dst, tagInt64), x), nil
	case uint64:
		return binary.AppendUvarint(append(dst, tagUint64), x), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(x)), nil
	case string:
		return appendString(append(dst, tagString), x), nil
	case []any:
		dst = binary.AppendUvarint(append(dst, tagSlice), uint64(len(x)))
		for _, e := range x {
			var err error
			if dst, err = AppendValue(dst, e); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case map[string]any:
		return AppendMap(append(dst, tagMap), x)
	}
	if c, ok := encoders[reflect.TypeOf(v)]; ok {
		return c.enc(append(dst, c.tag), v)
	}
	// Encode takes an address; a copy keeps v itself off the heap for
	// the tagged types above.
	boxed := v
	var nested bytes.Buffer
	if err := gob.NewEncoder(&nested).Encode(&boxed); err != nil {
		return dst, fmt.Errorf("wire: %T: %w", v, err)
	}
	dst = binary.AppendUvarint(append(dst, tagGob), uint64(nested.Len()))
	return append(dst, nested.Bytes()...), nil
}

// AppendMap appends m without a tag: its field count, then every field
// in key byte order as its name and its value.
func AppendMap(dst []byte, m map[string]any) ([]byte, error) {
	var few [8]string
	keys := few[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		var err error
		if dst, err = appendField(dst, k, m[k]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendFields appends what AppendMap appends for the map that holds
// vals[i] under names[i], for names in byte order, each once: a row
// kept as its values beside the names it shares with other rows.
func AppendFields(dst []byte, names []string, vals []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for i, k := range names {
		var err error
		if dst, err = appendField(dst, k, vals[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendField appends one field of a map: its name and its value.
func appendField(dst []byte, name string, v any) ([]byte, error) {
	dst, err := AppendValue(appendString(dst, name), v)
	if err != nil {
		return dst, fmt.Errorf("field %q: %w", name, err)
	}
	return dst, nil
}

// appendString appends s's length and bytes.
func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendElement appends an element's value, start and end. The trace slot
// is dropped: traces are diagnostic context of the run that made them.
func AppendElement(dst []byte, e temporal.Element) ([]byte, error) {
	dst, err := AppendValue(dst, e.Value)
	dst = binary.AppendVarint(dst, int64(e.Start))
	return binary.AppendVarint(dst, int64(e.End)), err
}

// Decoder reads what the Append functions wrote. After the first error
// every method returns a zero value and Err reports that error.
type Decoder struct {
	b     []byte
	err   error
	depth int
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset makes d read b, forgetting any error.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b} }

// Err returns the first error.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an error is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) failf(format string, args ...any) { d.Fail(fmt.Errorf("wire: "+format, args...)) }

// Finish returns the first error, or an error if bytes are left unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.failf("%d bytes left over", len(d.b))
	}
	return d.err
}

// take consumes the next n bytes.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.failf("truncated: want %d bytes, %d left", n, len(d.b))
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.failf("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.failf("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count reads the length of a list whose every item takes at least one
// byte, so a count beyond the bytes left is an error before anything is
// sized by it.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.failf("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// readString reads what appendString wrote.
func (d *Decoder) readString() string { return string(d.take(d.Uvarint())) }

// Element reads what AppendElement wrote, with a nil trace.
func (d *Decoder) Element() temporal.Element {
	v := d.Value()
	start := temporal.Time(d.Varint())
	return temporal.Element{Value: v, Interval: temporal.Interval{Start: start, End: temporal.Time(d.Varint())}}
}

// Map reads what AppendMap wrote.
func (d *Decoder) Map() map[string]any {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	m := make(map[string]any, n)
	for ; n > 0 && d.err == nil; n-- {
		k := d.readString()
		m[k] = d.Value()
	}
	return m
}

// Value reads what AppendValue wrote.
func (d *Decoder) Value() any {
	tag := d.take(1)
	if tag == nil {
		return nil
	}
	switch tag[0] {
	case tagNil:
		return nil
	case tagBool:
		// Only 0 and 1: every value has exactly one encoding.
		b := d.take(1)
		if b == nil || b[0] > 1 {
			d.failf("bad bool")
			return nil
		}
		return b[0] == 1
	case tagInt:
		return int(d.Varint())
	case tagInt64:
		return d.Varint()
	case tagUint64:
		return d.Uvarint()
	case tagFloat64:
		if b := d.take(8); b != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		return nil
	case tagString:
		return d.readString()
	case tagGob:
		b := d.take(d.Uvarint())
		if d.err != nil {
			return nil
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
			d.Fail(fmt.Errorf("wire: gob value: %w", err))
			return nil
		}
		return v
	}
	if d.depth == maxDepth {
		d.failf("values nest deeper than %d", maxDepth)
		return nil
	}
	d.depth++
	var v any
	switch dec := decoders[tag[0]]; {
	case tag[0] == tagSlice:
		s := make([]any, d.Count())
		for i := range s {
			s[i] = d.Value()
		}
		v = s
	case tag[0] == tagMap:
		v = d.Map()
	case dec != nil:
		v = dec(d)
	default:
		d.failf("unknown tag %d", tag[0])
	}
	d.depth--
	return v
}
