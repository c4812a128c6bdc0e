// Package aggregate provides PIPES' online aggregation functions. They are
// deliberately independent of the kind of processing — the same aggregates
// serve the data-driven operator algebra (internal/ops), the demand-driven
// cursor algebra (internal/cursor) and the ripple-join estimators — the
// code-reuse point the paper demonstrates.
//
// Aggregates are incremental: Insert folds one value in O(1) (amortised);
// invertible aggregates additionally support Remove, enabling true sliding
// evaluation. Numeric aggregates coerce any Go integer or float value.
package aggregate

import (
	"fmt"
	"math"
)

// Aggregate folds a sequence of values into a summary value.
type Aggregate interface {
	// Insert folds v into the aggregate.
	Insert(v any)
	// Value returns the current summary. Aggregates over zero inserted
	// values return nil (SQL semantics: empty aggregate is NULL), except
	// Count which returns 0.
	Value() any
	// Reset restores the state a fresh aggregate from the same factory
	// has: a group-by recycles an emptied group's aggregate for the next
	// new key, so nothing inserted before Reset may show after it.
	Reset()
}

// Invertible is implemented by aggregates that can un-fold a previously
// inserted value, enabling sliding-window maintenance without recompute.
type Invertible interface {
	Aggregate
	// Remove un-folds a value previously passed to Insert.
	Remove(v any)
}

// Factory constructs fresh aggregate instances; group-by operators call it
// for each new group that finds no spare.
type Factory func() Aggregate

// ToFloat coerces any Go numeric value to float64. The second result is
// false for non-numeric values.
func ToFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int8:
		return float64(x), true
	case int16:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint8:
		return float64(x), true
	case uint16:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	}
	return 0, false
}

// floatResult is implemented by the built-in aggregates whose Value is
// a float64 or nil. It states the result once, for Value and for
// Boxes.Value: ok is false when Value is nil; otherwise held, when not
// nil, is a float64 interface value the aggregate already holds and both
// return as it is, and else the result is f.
type floatResult interface {
	floatResult() (f float64, held any, ok bool)
}

// boxFloat is Value over a floatResult: the runtime boxes f.
func boxFloat(f float64, held any, ok bool) any {
	switch {
	case !ok:
		return nil
	case held != nil:
		return held
	}
	return f
}

func mustFloat(v any) float64 {
	f, ok := ToFloat(v)
	if !ok {
		panic(fmt.Sprintf("aggregate: non-numeric value %T(%v)", v, v))
	}
	return f
}

// Count counts inserted values.
type Count struct{ n int64 }

// NewCount returns a COUNT aggregate.
func NewCount() Aggregate { return &Count{} }

// Insert implements Aggregate.
func (c *Count) Insert(any) { c.n++ }

// Remove implements Invertible.
func (c *Count) Remove(any) { c.n-- }

// Value implements Aggregate; it returns an int64.
func (c *Count) Value() any { return c.intResult() }

// intResult is the count, for Value and Boxes.Value.
func (c *Count) intResult() int64 { return c.n }

// Reset implements Aggregate.
func (c *Count) Reset() { c.n = 0 }

// Sum sums numeric values.
type Sum struct {
	n   int64
	sum float64
}

// NewSum returns a SUM aggregate.
func NewSum() Aggregate { return &Sum{} }

// Insert implements Aggregate.
func (s *Sum) Insert(v any) { s.n++; s.sum += mustFloat(v) }

// Remove implements Invertible.
func (s *Sum) Remove(v any) { s.n--; s.sum -= mustFloat(v) }

// Value implements Aggregate; it returns a float64 or nil when empty.
func (s *Sum) Value() any { return boxFloat(s.floatResult()) }

func (s *Sum) floatResult() (float64, any, bool) { return s.sum, nil, s.n != 0 }

// Reset implements Aggregate.
func (s *Sum) Reset() { *s = Sum{} }

// Avg computes the arithmetic mean.
type Avg struct {
	n   int64
	sum float64
}

// NewAvg returns an AVG aggregate.
func NewAvg() Aggregate { return &Avg{} }

// Insert implements Aggregate.
func (a *Avg) Insert(v any) { a.n++; a.sum += mustFloat(v) }

// Remove implements Invertible.
func (a *Avg) Remove(v any) { a.n--; a.sum -= mustFloat(v) }

// Value implements Aggregate.
func (a *Avg) Value() any { return boxFloat(a.floatResult()) }

func (a *Avg) floatResult() (float64, any, bool) {
	if a.n == 0 {
		return 0, nil, false
	}
	return a.sum / float64(a.n), nil, true
}

// Reset implements Aggregate.
func (a *Avg) Reset() { *a = Avg{} }

// Min tracks the minimum. Not invertible; sliding windows recompute.
// When the minimum arrived as a float64, the input's own interface value
// is kept and returned, so Value does not box it again; other numeric
// kinds box at Value.
type Min struct {
	n     int64
	min   float64
	boxed any // the float64 input that set min, or nil
}

// NewMin returns a MIN aggregate.
func NewMin() Aggregate { return &Min{} }

// Insert implements Aggregate.
func (m *Min) Insert(v any) {
	f := mustFloat(v)
	if m.n == 0 || f < m.min {
		m.min, m.boxed = f, keepFloat(v)
	}
	m.n++
}

// Value implements Aggregate.
func (m *Min) Value() any { return boxFloat(m.floatResult()) }

func (m *Min) floatResult() (float64, any, bool) { return m.min, m.boxed, m.n != 0 }

// Reset implements Aggregate.
func (m *Min) Reset() { *m = Min{} }

// Max tracks the maximum. Not invertible; sliding windows recompute.
// Like Min, it keeps a float64 input's own interface value.
type Max struct {
	n     int64
	max   float64
	boxed any // the float64 input that set max, or nil
}

// NewMax returns a MAX aggregate.
func NewMax() Aggregate { return &Max{} }

// Insert implements Aggregate.
func (m *Max) Insert(v any) {
	f := mustFloat(v)
	if m.n == 0 || f > m.max {
		m.max, m.boxed = f, keepFloat(v)
	}
	m.n++
}

// Value implements Aggregate.
func (m *Max) Value() any { return boxFloat(m.floatResult()) }

func (m *Max) floatResult() (float64, any, bool) { return m.max, m.boxed, m.n != 0 }

// Reset implements Aggregate.
func (m *Max) Reset() { *m = Max{} }

// keepFloat returns v if it is a float64, which Value can return as it
// is, and nil otherwise.
func keepFloat(v any) any {
	if _, ok := v.(float64); ok {
		return v
	}
	return nil
}

// Variance computes the population variance with Welford's online
// algorithm (numerically stable); removal uses the inverse update, making
// it invertible for sliding windows.
type Variance struct {
	n    int64
	mean float64
	m2   float64
}

// NewVariance returns a VAR aggregate (population variance).
func NewVariance() Aggregate { return &Variance{} }

// Insert implements Aggregate.
func (v *Variance) Insert(val any) {
	x := mustFloat(val)
	v.n++
	delta := x - v.mean
	v.mean += delta / float64(v.n)
	v.m2 += delta * (x - v.mean)
}

// Remove implements Invertible (inverse Welford update).
func (v *Variance) Remove(val any) {
	x := mustFloat(val)
	if v.n <= 1 {
		v.Reset()
		return
	}
	nPrev := float64(v.n - 1)
	meanPrev := (float64(v.n)*v.mean - x) / nPrev
	v.m2 -= (x - meanPrev) * (x - v.mean)
	if v.m2 < 0 {
		v.m2 = 0 // clamp accumulated rounding error
	}
	v.mean = meanPrev
	v.n--
}

// Value implements Aggregate.
func (v *Variance) Value() any { return boxFloat(v.floatResult()) }

func (v *Variance) floatResult() (float64, any, bool) {
	if v.n == 0 {
		return 0, nil, false
	}
	return v.m2 / float64(v.n), nil, true
}

// Reset implements Aggregate.
func (v *Variance) Reset() { *v = Variance{} }

// StdDev is the square root of Variance.
type StdDev struct{ Variance }

// NewStdDev returns a STDDEV aggregate.
func NewStdDev() Aggregate { return &StdDev{} }

// Value implements Aggregate.
func (s *StdDev) Value() any { return boxFloat(s.floatResult()) }

func (s *StdDev) floatResult() (float64, any, bool) {
	v, _, ok := s.Variance.floatResult()
	return math.Sqrt(v), nil, ok
}
