package aggregate

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func feed(a Aggregate, vals ...float64) {
	for _, v := range vals {
		a.Insert(v)
	}
}

func TestEmptyAggregatesAreNull(t *testing.T) {
	for name, f := range map[string]Factory{
		"sum": NewSum, "avg": NewAvg, "min": NewMin, "max": NewMax,
		"var": NewVariance, "stddev": NewStdDev, "median": NewMedian,
	} {
		if v := f().Value(); v != nil {
			t.Errorf("%s over empty input = %v, want nil", name, v)
		}
	}
	if v := NewCount().Value(); v != int64(0) {
		t.Errorf("count over empty input = %v, want 0", v)
	}
}

func TestCountSumAvg(t *testing.T) {
	c, s, a := NewCount(), NewSum(), NewAvg()
	for _, agg := range []Aggregate{c, s, a} {
		feed(agg, 1, 2, 3, 4)
	}
	if c.Value() != int64(4) {
		t.Errorf("count = %v", c.Value())
	}
	if s.Value() != 10.0 {
		t.Errorf("sum = %v", s.Value())
	}
	if a.Value() != 2.5 {
		t.Errorf("avg = %v", a.Value())
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := NewMin(), NewMax()
	for _, agg := range []Aggregate{mn, mx} {
		feed(agg, 3, -7, 12, 0)
	}
	if mn.Value() != -7.0 {
		t.Errorf("min = %v", mn.Value())
	}
	if mx.Value() != 12.0 {
		t.Errorf("max = %v", mx.Value())
	}
}

var valueSink any

// MIN and MAX hand back a float64 input's own interface value, so Value
// on float input does not allocate. Other numeric kinds box at Value, to
// the float64 value and type they always had.
func TestMinMaxKeepFloatInput(t *testing.T) {
	for _, c := range []struct {
		name       string
		f          Factory
		float, mix any
	}{{"min", NewMin, -2.0, -1.0}, {"max", NewMax, 9.5, 10.0}} {
		a := c.f()
		for _, v := range []any{3.5, 1.25, 9.5, -2.0} {
			a.Insert(v)
		}
		if got := a.Value(); got != c.float {
			t.Errorf("%s over floats = %#v, want %#v", c.name, got, c.float)
		}
		if n := testing.AllocsPerRun(100, func() { valueSink = a.Value() }); n != 0 {
			t.Errorf("%s: Value over float input makes %.0f allocations, want 0", c.name, n)
		}
		m := c.f()
		for _, v := range []any{int64(4), 2.5, 10, float32(-1)} {
			m.Insert(v)
		}
		if got := m.Value(); got != c.mix {
			t.Errorf("%s over mixed kinds = %#v, want %#v", c.name, got, c.mix)
		}
	}
}

func TestVarianceMatchesDirectFormula(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v := NewVariance()
	feed(v, vals...)
	if got := v.Value().(float64); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("variance = %v, want 4", got)
	}
	sd := NewStdDev()
	feed(sd, vals...)
	if got := sd.Value().(float64); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("stddev = %v, want 2", got)
	}
}

func TestIntegerCoercion(t *testing.T) {
	s := NewSum()
	s.Insert(int(1))
	s.Insert(int64(2))
	s.Insert(uint8(3))
	s.Insert(float32(4))
	if s.Value() != 10.0 {
		t.Errorf("sum with mixed numerics = %v, want 10", s.Value())
	}
	if _, ok := ToFloat("nope"); ok {
		t.Error("ToFloat accepted a string")
	}
}

func TestNonNumericPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-numeric insert")
		}
	}()
	NewSum().Insert("oops")
}

func TestInvertibleRoundTrip(t *testing.T) {
	// Property: inserting a batch then removing it restores the previous
	// summary for every invertible aggregate.
	f := func(base, batch []uint8) bool {
		for _, mk := range []Factory{NewCount, NewSum, NewAvg, NewVariance} {
			agg := mk().(Invertible)
			for _, v := range base {
				agg.Insert(float64(v))
			}
			before := agg.Value()
			for _, v := range batch {
				agg.Insert(float64(v))
			}
			for _, v := range batch {
				agg.Remove(float64(v))
			}
			after := agg.Value()
			if before == nil || after == nil {
				if (before == nil) != (after == nil) {
					return false
				}
				continue
			}
			var b, a float64
			switch x := before.(type) {
			case int64:
				b, a = float64(x), float64(after.(int64))
			case float64:
				b, a = x, after.(float64)
			}
			if math.Abs(b-a) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVarianceRemoveToEmpty(t *testing.T) {
	v := NewVariance().(*Variance)
	v.Insert(5.0)
	v.Remove(5.0)
	if v.Value() != nil {
		t.Errorf("variance after full removal = %v, want nil", v.Value())
	}
}

func TestReset(t *testing.T) {
	for name, f := range map[string]Factory{
		"count": NewCount, "sum": NewSum, "avg": NewAvg, "min": NewMin,
		"max": NewMax, "var": NewVariance, "median": NewMedian,
	} {
		a := f()
		feed(a, 1, 2, 3)
		a.Reset()
		empty := f().Value()
		if got := a.Value(); got != empty && !(got == nil && empty == nil) {
			t.Errorf("%s after Reset = %v, want %v", name, got, empty)
		}
	}
}

// TestResetRestoresFresh: Reset must leave an aggregate indistinguishable
// from a new one of the same factory — a group-by hands a reset aggregate
// to the next new key.
func TestResetRestoresFresh(t *testing.T) {
	factories := map[string]Factory{
		"reservoir": func() Aggregate { return NewReservoir(3, 7) },
		"p2-0.9":    func() Aggregate { return NewP2Quantile(0.9) },
	}
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "VAR", "VARIANCE", "STDDEV", "MEDIAN"} {
		f, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		factories[name] = f
	}
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i*7%13) + 0.5
	}
	for name, f := range factories {
		a := f()
		feed(a, vals...)
		a.Reset()
		if fresh := f(); !reflect.DeepEqual(a, fresh) {
			t.Errorf("%s after Reset = %#v, want a fresh instance %#v", name, a, fresh)
		}
		// And it goes on as a fresh one does.
		fresh := f()
		feed(a, vals...)
		feed(fresh, vals...)
		if got, want := a.Value(), fresh.Value(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s refilled after Reset = %v, a fresh instance %v", name, got, want)
		}
	}
}

func TestP2QuantileSmallInputExact(t *testing.T) {
	q := NewP2Quantile(0.5)
	q.Insert(3.0)
	q.Insert(1.0)
	q.Insert(2.0)
	if got := q.Value().(float64); got != 2.0 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
}

func TestP2QuantileConvergesOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewP2Quantile(0.9)
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 100
		q.Insert(vals[i])
	}
	sort.Float64s(vals)
	exact := vals[int(0.9*float64(n))]
	got := q.Value().(float64)
	if math.Abs(got-exact) > 2.0 { // 2% of range
		t.Errorf("P2 0.9-quantile = %v, exact = %v", got, exact)
	}
}

func TestP2QuantileRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) did not panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}

func TestReservoirFillsThenSamples(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 10; i++ {
		r.Insert(i)
	}
	if got := r.Value().([]any); len(got) != 10 {
		t.Fatalf("sample size %d before overflow, want 10", len(got))
	}
	for i := 10; i < 10000; i++ {
		r.Insert(i)
	}
	sample := r.Value().([]any)
	if len(sample) != 10 {
		t.Fatalf("sample size %d after overflow, want 10", len(sample))
	}
	if r.Seen() != 10000 {
		t.Fatalf("Seen = %d, want 10000", r.Seen())
	}
	// Uniformity smoke check: mean of sampled indices should be near 5000.
	sum := 0.0
	for _, v := range sample {
		sum += float64(v.(int))
	}
	if mean := sum / 10; mean < 1500 || mean > 8500 {
		t.Errorf("sample mean %v implausible for uniform sampling", mean)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Over many repetitions each element must appear with probability k/n.
	const k, n, reps = 5, 50, 4000
	counts := make([]int, n)
	for rep := 0; rep < reps; rep++ {
		r := NewReservoir(k, int64(rep))
		for i := 0; i < n; i++ {
			r.Insert(i)
		}
		for _, v := range r.Value().([]any) {
			counts[v.(int)]++
		}
	}
	want := float64(reps) * k / n // 400
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("element %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"count", "SUM", "Avg", "MIN", "max", "VAR", "VARIANCE", "STDDEV", "median"} {
		f, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if f == nil {
			t.Errorf("ByName(%q) returned nil factory", name)
		}
	}
	if _, err := ByName("frobnicate"); err == nil {
		t.Error("ByName accepted unknown aggregate")
	}
}
