package aggregate

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// boxed is one value a Boxes handed out and what Value returned then.
type boxed struct {
	what      string
	got, want any
}

// Boxes.Value returns what Value returns, in dynamic type and value, for
// every built-in aggregate over seeded inserts and removes: COUNT well
// past the 255 the runtime boxes for free, MIN and MAX over int inputs
// (boxed at Value) and float64 ones (the input returned as it is). The
// values it handed out read the same after two more chunks have filled,
// a collection has run and the freed memory has been reused.
func TestBoxesMatchValue(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var b Boxes
	var out []boxed
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "VAR", "STDDEV", "MEDIAN"} {
		for _, input := range []string{"int", "float64"} {
			f, _, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a := f()
			inv, _ := a.(Invertible)
			var live []any
			what := fmt.Sprintf("%s over %s", name, input)
			check := func(step int) {
				got, want := b.Value(a), a.Value()
				if got != want { // equal dynamic types and values
					t.Fatalf("%s, step %d: Boxes.Value = %T(%v), Value = %T(%v)", what, step, got, got, want, want)
				}
				out = append(out, boxed{what, got, want})
			}
			check(0)
			for step := 1; step <= 600; step++ {
				if inv != nil && len(live) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(live))
					inv.Remove(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					var v any = rng.Intn(2001) - 1000
					if input == "float64" {
						v = rng.NormFloat64() * 100
					}
					a.Insert(v)
					live = append(live, v)
				}
				check(step)
			}
			if name == "COUNT" && a.Value().(int64) <= 255 {
				t.Fatalf("%s ends at %v, want past 255", what, a.Value())
			}
		}
	}

	// Two more chunks, then a collection and 512-byte allocations that
	// would reuse a chunk freed while its values were still referenced.
	s := NewSum()
	for i := 0; i < 2*chunkSize; i++ {
		s.Insert(1)
		b.Value(s)
	}
	runtime.GC()
	junk := make([]*[chunkSize]uint64, 256)
	for i := range junk {
		junk[i] = new([chunkSize]uint64)
		for j := range junk[i] {
			junk[i][j] = ^uint64(0)
		}
	}
	for i, o := range out {
		if o.got != o.want {
			t.Fatalf("%s, value %d: reads %T(%v) after more chunks and a collection, was %T(%v)",
				o.what, i, o.got, o.got, o.want, o.want)
		}
	}
	runtime.KeepAlive(junk)
}

// A long run of results costs one allocation per chunk: at most one per
// 32 values, where Value allocates one each.
func TestBoxesAllocateOncePerChunk(t *testing.T) {
	const n = 100 * chunkSize
	c, a := NewCount(), NewAvg()
	for i := 0; i < 256; i++ {
		c.Insert(nil)
	}
	var b Boxes
	var x any = 1.5 // boxed once, so Insert allocates nothing
	keep := make([]any, 0, 2*n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.Insert(nil)
		a.Insert(x)
		keep = append(keep, b.Value(c), b.Value(a))
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(len(keep))
	t.Logf("%d COUNT and AVG results: %.4f allocations each", len(keep), per)
	if per > 1.0/32 {
		t.Fatalf("boxing %d results allocates %.4f times each, want at most 1/32", len(keep), per)
	}
}

// Boxed boxes a type in place only when an interface value holds a
// pointer to it: it refuses the pointer-shaped types, whose interface
// value is the value itself, and a type of no size. Any other type's
// values read back as what was boxed, equal in dynamic type and value.
func TestBoxesRefusePointerShapedTypes(t *testing.T) {
	refused := func(name string, box func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s was boxed in place", name)
			}
		}()
		box()
	}
	x := 1
	refused("*int", func() { new(Boxed[*int]).Box(&x) })
	refused("map", func() { new(Boxed[map[string]int]).Box(nil) })
	refused("chan", func() { new(Boxed[chan int]).Box(nil) })
	refused("func", func() { new(Boxed[func()]).Box(nil) })
	refused("struct of one pointer", func() { new(Boxed[struct{ p *int }]).Box(struct{ p *int }{&x}) })
	refused("array of one map", func() { new(Boxed[[1]map[int]int]).Box([1]map[int]int{}) })
	refused("struct of no size", func() { new(Boxed[struct{}]).Box(struct{}{}) })

	type two struct{ a, b *int }
	var b Boxed[two]
	var got, want []any
	for i := 0; i < 3*chunkBytes/16; i++ {
		v := two{&x, nil}
		got, want = append(got, b.Box(v)), append(want, any(v))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %d reads %#v, want %#v", i, got[i], want[i])
		}
	}
}

// The aggregates a ByName factory takes from its chunks act as fresh
// ones. Each of 300 (chunks of 4 slots, doubling to 64) folds values of
// its own; every other one is then reset and refilled, as a group-by
// reuses a spare; 300 more fill further chunks; a collection runs. Each
// still reads what an aggregate from the plain constructor reads after
// the same inserts. ByName's invertible says what its aggregates are.
func TestChunkedAggregatesActFresh(t *testing.T) {
	plain := map[string]Factory{"COUNT": NewCount, "SUM": NewSum, "AVG": NewAvg, "MIN": NewMin,
		"MAX": NewMax, "VAR": NewVariance, "STDDEV": NewStdDev, "MEDIAN": NewMedian}
	for name, fresh := range plain {
		f, invertible, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f().(Invertible); ok != invertible {
			t.Errorf("%s: ByName says invertible %v, its aggregates %v", name, invertible, ok)
		}
		type pair struct{ got, want Aggregate }
		fill := func(p pair, i int) {
			for j := 0; j <= i%7; j++ {
				v := float64((i*31+j*7)%97) - 40
				p.got.Insert(v)
				p.want.Insert(v)
			}
		}
		var all []pair
		add := func(n int) {
			for i := len(all); n > 0; i, n = i+1, n-1 {
				p := pair{f(), fresh()}
				fill(p, i)
				all = append(all, p)
			}
		}
		add(300)
		for i := 0; i < len(all); i += 2 {
			all[i].got.Reset()
			all[i].want = fresh()
			fill(all[i], i+1)
		}
		add(300)
		runtime.GC()
		for i, p := range all {
			if got, want := p.got.Value(), p.want.Value(); got != want {
				t.Fatalf("%s: aggregate %d reads %v, a fresh one %v", name, i, got, want)
			}
		}
	}
}
