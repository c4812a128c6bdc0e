package aggregate

import (
	"math/rand"
	"slices"
	"sort"
)

// P2Quantile estimates the p-quantile of a stream with the P² algorithm
// (Jain & Chlamtac): five markers maintained in O(1) per insertion without
// storing observations — the classic synopsis for online aggregation.
type P2Quantile struct {
	p       float64
	n       int64
	initial []float64 // first five observations, before the markers exist
	q       [5]float64
	pos     [5]float64 // actual marker positions
	des     [5]float64 // desired marker positions
	inc     [5]float64 // desired position increments
}

// NewP2Quantile returns an estimator for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("aggregate: quantile p must lie in (0,1)")
	}
	return &P2Quantile{p: p}
}

// NewMedian returns a P² estimator of the median.
func NewMedian() Aggregate { return NewP2Quantile(0.5) }

// Insert implements Aggregate.
func (q *P2Quantile) Insert(v any) {
	x := mustFloat(v)
	q.n++
	if len(q.initial) < 5 {
		q.initial = append(q.initial, x)
		if len(q.initial) == 5 {
			sort.Float64s(q.initial)
			copy(q.q[:], q.initial)
			q.pos = [5]float64{1, 2, 3, 4, 5}
			q.des = [5]float64{1, 1 + 2*q.p, 1 + 4*q.p, 3 + 2*q.p, 5}
			q.inc = [5]float64{0, q.p / 2, q.p, (1 + q.p) / 2, 1}
		}
		return
	}

	// Find the cell k containing x and update extreme markers.
	var k int
	switch {
	case x < q.q[0]:
		q.q[0] = x
		k = 0
	case x >= q.q[4]:
		q.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.des[i] += q.inc[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.des[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			cand := q.parabolic(i, sign)
			if q.q[i-1] < cand && cand < q.q[i+1] {
				q.q[i] = cand
			} else {
				q.q[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

func (q *P2Quantile) parabolic(i int, d float64) float64 {
	return q.q[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.q[i+1]-q.q[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.q[i]-q.q[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.q[i] + d*(q.q[j]-q.q[i])/(q.pos[j]-q.pos[i])
}

// Value implements Aggregate. Before five observations arrive it returns
// the exact quantile of the buffered values.
func (q *P2Quantile) Value() any { return boxFloat(q.floatResult()) }

func (q *P2Quantile) floatResult() (float64, any, bool) {
	if q.n == 0 {
		return 0, nil, false
	}
	if len(q.initial) < 5 {
		var buf [5]float64
		sorted := buf[:copy(buf[:], q.initial)]
		slices.Sort(sorted)
		idx := int(q.p * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx], nil, true
	}
	return q.q[2], nil, true
}

// Reset implements Aggregate.
func (q *P2Quantile) Reset() { *q = P2Quantile{p: q.p} }

// Reservoir maintains a uniform random sample of fixed size over an
// unbounded stream (Vitter's algorithm R). It is both an aggregate (Value
// returns the sample as []any) and the shedding synopsis used by the
// memory manager's sampling strategy.
type Reservoir struct {
	k      int
	n      int64
	sample []any
	seed   int64
	rng    *rand.Rand
}

// NewReservoir returns a reservoir of capacity k using the given seed.
func NewReservoir(k int, seed int64) *Reservoir {
	if k <= 0 {
		panic("aggregate: reservoir capacity must be positive")
	}
	return &Reservoir{k: k, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Insert implements Aggregate.
func (r *Reservoir) Insert(v any) {
	r.n++
	if len(r.sample) < r.k {
		r.sample = append(r.sample, v)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.k) {
		r.sample[j] = v
	}
}

// Value implements Aggregate; it returns a copy of the sample as []any.
func (r *Reservoir) Value() any {
	out := make([]any, len(r.sample))
	copy(out, r.sample)
	return out
}

// Seen returns the number of observed values.
func (r *Reservoir) Seen() int64 { return r.n }

// Reset implements Aggregate: the sample is dropped (its values are no
// longer referenced) and the rng reseeded, so a reset reservoir samples
// exactly as a new one with the same seed.
func (r *Reservoir) Reset() {
	r.n = 0
	r.sample = nil
	r.rng.Seed(r.seed)
}
