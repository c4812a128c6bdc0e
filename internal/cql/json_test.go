package cql

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestTupleAppendJSONEdges pins the renderings where encoding/json's
// rules are easiest to get wrong, and the values AppendJSON refuses.
func TestTupleAppendJSONEdges(t *testing.T) {
	wide := Tuple{}
	for i := 0; i < 11; i++ { // more keys than sortedKeys' stack array
		wide[fmt.Sprintf("k%02d", 10-i)] = i
	}
	for _, tc := range []struct {
		name string
		in   Tuple
		want string // "" = AppendJSON must refuse
	}{
		{"zero", Tuple{"f": 0.0}, `{"f":0}`},
		{"negative zero", Tuple{"f": math.Copysign(0, -1)}, `{"f":-0}`},
		{"1e-6 stays f", Tuple{"f": 1e-6}, `{"f":0.000001}`},
		{"1e-7 goes e", Tuple{"f": 1e-7}, `{"f":1e-7}`},
		{"negative small", Tuple{"f": -1.5e-9}, `{"f":-1.5e-9}`},
		{"just below 1e21", Tuple{"f": 999999999999999900000.0}, `{"f":999999999999999900000}`},
		{"1e21 goes e", Tuple{"f": 1e21}, `{"f":1e+21}`},
		{"e-100 keeps digits", Tuple{"f": 1e-100}, `{"f":1e-100}`},
		{"NaN", Tuple{"f": math.NaN()}, ""},
		{"+Inf", Tuple{"f": math.Inf(1)}, ""},
		{"-Inf", Tuple{"f": math.Inf(-1)}, ""},
		{"int64 extremes", Tuple{"lo": int64(math.MinInt64), "hi": int64(math.MaxInt64)},
			`{"hi":9223372036854775807,"lo":-9223372036854775808}`},
		{"int extremes", Tuple{"lo": math.MinInt, "hi": math.MaxInt},
			`{"hi":9223372036854775807,"lo":-9223372036854775808}`},
		{"bools and nil", Tuple{"t": true, "f": false, "n": nil}, `{"f":false,"n":null,"t":true}`},
		{"plain string", Tuple{"s": "Oakland Ave 12 ~|{}"}, `{"s":"Oakland Ave 12 ~|{}"}`},
		{"html <", Tuple{"s": "a<b"}, ""},
		{"html >", Tuple{"s": "a>b"}, ""},
		{"html &", Tuple{"s": "a&b"}, ""},
		{"quote", Tuple{"s": `a"b`}, ""},
		{"backslash", Tuple{"s": `a\b`}, ""},
		{"control", Tuple{"s": "a\nb"}, ""},
		{"non-ASCII", Tuple{"s": "café"}, ""},
		{"unsafe key", Tuple{"a<b": 1}, ""},
		{"outside kind", Tuple{"u": uint64(1)}, ""},
		{"nested tuple", Tuple{"t": Tuple{"a": 1}}, ""},
		{"more than 8 keys", wide, `{"k00":10,"k01":9,"k02":8,"k03":7,"k04":6,"k05":5,"k06":4,"k07":3,"k08":2,"k09":1,"k10":0}`},
		{"empty", Tuple{}, `{}`},
		{"nil tuple", Tuple(nil), `null`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prefix := []byte("prefix:")
			got, ok := tc.in.AppendJSON(prefix)
			if tc.want == "" {
				if ok || string(got) != "prefix:" {
					t.Fatalf("AppendJSON = %q, %v; want the prefix back and false", got, ok)
				}
				return
			}
			if !ok || string(got) != "prefix:"+tc.want {
				t.Fatalf("AppendJSON = %q, %v; want %q", got, ok, "prefix:"+tc.want)
			}
			if ref, err := json.Marshal(tc.in); err != nil || string(ref) != tc.want {
				t.Fatalf("json.Marshal = %q, %v; the table disagrees with the reference", ref, err)
			}
		})
	}
}

// FuzzTupleJSON is the differential oracle for AppendJSON: whenever it
// renders a tuple, its bytes are json.Marshal's, and when it refuses it
// leaves dst as it was. Each byte of kinds picks one field's kind, over
// everything AppendJSON renders and some it must refuse.
func FuzzTupleJSON(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, "k", "oakland", int64(42), 3.25, true)
	f.Add([]byte{4, 4, 4, 4}, "", "", int64(-1), 1e-7, false)
	f.Add([]byte{4, 4}, "x", "a<b", int64(math.MinInt64), 1e21, false)
	f.Add([]byte{5, 6, 7, 8, 9}, "é", "café", int64(0), math.Inf(1), true)
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, "key", "s", int64(7), 0.0, false)
	f.Fuzz(func(t *testing.T, kinds []byte, key, s string, n int64, fl float64, b bool) {
		if len(kinds) > 16 {
			kinds = kinds[:16]
		}
		tup := Tuple{}
		for i, k := range kinds {
			var v any
			switch k % 10 {
			case 0:
				v = nil
			case 1:
				v = b != (i%2 == 1)
			case 2:
				v = int(n) + i
			case 3:
				v = n - int64(i)
			case 4:
				v = fl * math.Pow(10, float64(i*7-40))
			case 5:
				v = s[:len(s)*i/len(kinds)]
			case 6:
				v = uint64(n)
			case 7:
				v = []int{i}
			case 8:
				v = Tuple{key: n}
			case 9:
				v = float32(fl)
			}
			tup[fmt.Sprintf("%s%d", key, i)] = v
		}
		prefix := []byte(s)
		got, ok := tup.AppendJSON(bytes.Clone(prefix))
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendJSON(%#v) clobbered dst: %q", tup, got)
		}
		if !ok {
			if len(got) != len(prefix) {
				t.Fatalf("AppendJSON(%#v) refused but returned %q", tup, got)
			}
			return
		}
		ref, err := json.Marshal(tup)
		if err != nil {
			t.Fatalf("AppendJSON(%#v) rendered %q where json.Marshal fails: %v", tup, got[len(prefix):], err)
		}
		if !bytes.Equal(got[len(prefix):], ref) {
			t.Fatalf("AppendJSON(%#v)\n got %s\nwant %s", tup, got[len(prefix):], ref)
		}
	})
}
