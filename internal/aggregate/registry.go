package aggregate

import (
	"fmt"
	"strings"
)

// ByName resolves an SQL aggregate-function name to a Factory; it backs
// the CQL front end. Recognised names (case-insensitive): COUNT, SUM, AVG,
// MIN, MAX, VAR, VARIANCE, STDDEV, MEDIAN. invertible reports whether
// every aggregate the factory makes is Invertible; it is read off the
// type, so asking makes no aggregate.
//
// Each call returns a new factory. For every name but MEDIAN it takes its
// aggregates from chunks it owns (Chunks), so a new group costs a
// fraction of an allocation; like the chunks, such a factory is not safe
// for concurrent use. A group-by calls it where it adds a group, under
// its processing lock or while it loads its state, as it uses its Boxes.
func ByName(name string) (f Factory, invertible bool, err error) {
	switch strings.ToUpper(name) {
	case "COUNT":
		f, invertible = chunked[Count]()
	case "SUM":
		f, invertible = chunked[Sum]()
	case "AVG":
		f, invertible = chunked[Avg]()
	case "MIN":
		f, invertible = chunked[Min]()
	case "MAX":
		f, invertible = chunked[Max]()
	case "VAR", "VARIANCE":
		f, invertible = chunked[Variance]()
	case "STDDEV":
		f, invertible = chunked[StdDev]()
	case "MEDIAN":
		_, invertible = Aggregate((*P2Quantile)(nil)).(Invertible)
		f = NewMedian
	default:
		return nil, false, fmt.Errorf("aggregate: unknown aggregate function %q", name)
	}
	return f, invertible, nil
}

// chunked returns a factory of zero Ts taken from chunks it owns, and
// whether *T is Invertible.
func chunked[T any, P interface {
	*T
	Aggregate
}]() (Factory, bool) {
	var c Chunks[T]
	_, invertible := Aggregate(P(nil)).(Invertible)
	return func() Aggregate { return P(c.New()) }, invertible
}
