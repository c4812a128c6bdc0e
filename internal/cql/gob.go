package cql

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
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
	keys := few[:0]
	for k := range t {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, k := range keys {
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
