package cql

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Gob's reflective path for map[string]any re-derives the map layout and
// writes a concrete-type descriptor per value; on checkpoint snapshots
// holding tens of thousands of window tuples (bench/'s checkpoint_recover,
// cell ft.encode_ms_per_round) that
// reflection dominates the barrier stall. Tuples therefore implement
// GobEncoder/GobDecoder with a compact hand-rolled frame: field count,
// then per field the name, a one-byte type tag and the value. Types
// outside the tag set fall back to a nested gob stream, so any value
// registered for checkpointing still round-trips — just slower.
//
// Fields are written in sorted name order, not map order: the encoding
// must be a pure function of the tuple's contents. The incremental
// checkpoint chain deltas each snapshot against the previous round's
// bytes, and randomized map iteration would make every tuple's frame
// differ between byte-identical states, defeating both the unchanged
// detection and the content-defined delta chunking.

const (
	tupTagInt byte = iota
	tupTagInt64
	tupTagFloat64
	tupTagString
	tupTagBool
	tupTagGob
)

// GobEncode implements gob.GobEncoder.
func (t Tuple) GobEncode() ([]byte, error) {
	return t.AppendFrame(make([]byte, 0, 16+24*len(t)))
}

// AppendFrame appends the tuple's frame to buf. The frame is the one
// canonical rendering of a tuple: a pure function of its contents, typed
// (1 and 1.0 differ), and what DISTINCT compares as well as what a
// checkpoint stores.
func (t Tuple) AppendFrame(buf []byte) ([]byte, error) {
	var few [8]string
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, k := range t.sortedKeys(&few) {
		v := t[k]
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		switch x := v.(type) {
		case int:
			buf = append(buf, tupTagInt)
			buf = binary.AppendVarint(buf, int64(x))
		case int64:
			buf = append(buf, tupTagInt64)
			buf = binary.AppendVarint(buf, x)
		case float64:
			buf = append(buf, tupTagFloat64)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		case string:
			buf = append(buf, tupTagString)
			buf = binary.AppendUvarint(buf, uint64(len(x)))
			buf = append(buf, x...)
		case bool:
			buf = append(buf, tupTagBool)
			if x {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		default:
			// Encode takes an address; a copy keeps v itself off the heap
			// for the tagged types above.
			boxed := v
			var nested bytes.Buffer
			if err := gob.NewEncoder(&nested).Encode(&boxed); err != nil {
				return nil, fmt.Errorf("cql: tuple field %q: %w", k, err)
			}
			buf = append(buf, tupTagGob)
			buf = binary.AppendUvarint(buf, uint64(nested.Len()))
			buf = append(buf, nested.Bytes()...)
		}
	}
	return buf, nil
}

// sortedKeys returns the tuple's field names in byte order, in few's
// storage when they fit: both renderings walk fields in this order.
func (t Tuple) sortedKeys(few *[8]string) []string {
	keys := few[:0]
	for k := range t {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// AppendJSON appends the tuple's JSON rendering to dst, byte for byte
// what encoding/json.Marshal produces for it, without reflection. It
// renders nil, bool, int, int64, finite float64 and strings of printable
// ASCII outside `"\<>&` (keys included); for any other field it returns
// dst unchanged and false, and the caller falls back to json.Marshal.
func (t Tuple) AppendJSON(dst []byte) ([]byte, bool) {
	if t == nil {
		return append(dst, "null"...), true
	}
	var few [8]string
	buf := append(dst, '{')
	for i, k := range t.sortedKeys(&few) {
		if i > 0 {
			buf = append(buf, ',')
		}
		var ok bool
		if buf, ok = appendJSONString(buf, k); !ok {
			return buf[:len(dst)], false
		}
		buf = append(buf, ':')
		switch x := t[k].(type) {
		case nil:
			buf = append(buf, "null"...)
		case bool:
			buf = strconv.AppendBool(buf, x)
		case int:
			buf = strconv.AppendInt(buf, int64(x), 10)
		case int64:
			buf = strconv.AppendInt(buf, x, 10)
		case float64:
			buf, ok = appendJSONFloat(buf, x)
		case string:
			buf, ok = appendJSONString(buf, x)
		default:
			ok = false
		}
		if !ok {
			return buf[:len(dst)], false
		}
	}
	return append(buf, '}'), true
}

// appendJSONString quotes s when encoding/json would emit it verbatim:
// printable ASCII with nothing it escapes (it HTML-escapes <, > and &).
func appendJSONString(buf []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return buf, false
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), true
}

// appendJSONFloat is encoding/json's float64 encoder: shortest 'f'
// rendering, 'e' outside [1e-6, 1e21) with a two-digit negative exponent
// trimmed to one (e-07 → e-7). NaN and ±Inf do not marshal.
func appendJSONFloat(buf []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, true
}

// GobDecode implements gob.GobDecoder.
func (t *Tuple) GobDecode(data []byte) error {
	n, off, err := tupUvarint(data, 0)
	if err != nil {
		return err
	}
	out := make(Tuple, n)
	for i := uint64(0); i < n; i++ {
		klen, o, err := tupUvarint(data, off)
		if err != nil {
			return err
		}
		off = o
		if uint64(len(data)-off) < klen {
			return fmt.Errorf("cql: tuple frame truncated in field name")
		}
		k := string(data[off : off+int(klen)])
		off += int(klen)
		if off >= len(data) {
			return fmt.Errorf("cql: tuple frame truncated at tag of %q", k)
		}
		tag := data[off]
		off++
		switch tag {
		case tupTagInt, tupTagInt64:
			x, m := binary.Varint(data[off:])
			if m <= 0 {
				return fmt.Errorf("cql: tuple frame truncated in int %q", k)
			}
			off += m
			if tag == tupTagInt {
				out[k] = int(x)
			} else {
				out[k] = x
			}
		case tupTagFloat64:
			if len(data)-off < 8 {
				return fmt.Errorf("cql: tuple frame truncated in float %q", k)
			}
			out[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		case tupTagString:
			slen, o, err := tupUvarint(data, off)
			if err != nil {
				return err
			}
			off = o
			if uint64(len(data)-off) < slen {
				return fmt.Errorf("cql: tuple frame truncated in string %q", k)
			}
			out[k] = string(data[off : off+int(slen)])
			off += int(slen)
		case tupTagBool:
			if off >= len(data) {
				return fmt.Errorf("cql: tuple frame truncated in bool %q", k)
			}
			out[k] = data[off] == 1
			off++
		case tupTagGob:
			glen, o, err := tupUvarint(data, off)
			if err != nil {
				return err
			}
			off = o
			if uint64(len(data)-off) < glen {
				return fmt.Errorf("cql: tuple frame truncated in nested gob %q", k)
			}
			var v any
			if err := gob.NewDecoder(bytes.NewReader(data[off : off+int(glen)])).Decode(&v); err != nil {
				return fmt.Errorf("cql: tuple field %q: %w", k, err)
			}
			out[k] = v
			off += int(glen)
		default:
			return fmt.Errorf("cql: tuple field %q has unknown tag %d", k, tag)
		}
	}
	*t = out
	return nil
}

func tupUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("cql: tuple frame truncated")
	}
	return v, off + n, nil
}
