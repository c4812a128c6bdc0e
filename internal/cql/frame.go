package cql

import (
	"math"
	"slices"
	"strconv"

	"pipes/internal/wire"
)

func init() {
	wire.Register(wire.TagTuple, func(dst []byte, t Tuple) ([]byte, error) { return t.AppendFrame(dst) },
		func(d *wire.Decoder) Tuple { return d.Map() })
}

// AppendFrame appends the tuple's frame to buf: its field count, then
// every field in name order as its name and its value in the state
// codec's tags (wire.AppendMap). The frame is the one canonical rendering
// of a tuple: a pure function of its contents, typed (1 and 1.0 differ),
// and what DISTINCT compares as well as what a checkpoint or a remote
// stream carries. A field value the codec cannot encode is an error.
func (t Tuple) AppendFrame(buf []byte) ([]byte, error) { return wire.AppendMap(buf, t) }

// sortedKeys returns the tuple's field names in byte order, in few's
// storage when they fit: AppendJSON walks fields in the order the frame
// does.
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
