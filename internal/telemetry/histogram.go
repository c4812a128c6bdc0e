// Package telemetry is the live-observability substrate of PIPES: lock-free
// fixed-bucket latency histograms (per-operator queue and service time),
// sampled element-level trace spans that follow an element through the
// query graph, and an HTTP scrape endpoint serving Prometheus text-format
// metrics, a JSON topology snapshot, Chrome trace_event JSON and pprof.
//
// The package depends only on internal/temporal so that every layer of the
// runtime (pubsub, metadata, sched, memory, the DSMS facade) can record
// into it without import cycles. Recording is designed to be cheap enough
// to leave on in production: histogram observation is two atomic adds and
// one atomic max, tracing is sampled 1-in-N, and everything is allocation
// free on the hot path.
package telemetry

import (
	"math"
	"sync/atomic"
)

// histBuckets is the number of histogram buckets. Bucket i counts
// observations in (bound[i-1], bound[i]] nanoseconds with exponentially
// growing bounds, so one histogram spans 16ns..~34s with ~2x resolution —
// wide enough for queue waits and tight enough for sub-microsecond
// operator service times.
const histBuckets = 32

// histShift is the exponent of the first bucket bound: bound[i] = 1<<(histShift+i).
const histShift = 4

// BucketBound returns the inclusive upper bound (ns) of bucket i; the last
// bucket is unbounded.
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return 1 << (histShift + uint(i))
}

// bucketOf maps a duration in ns to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	// Find the smallest i with ns <= 1<<(histShift+i).
	for i := 0; i < histBuckets-1; i++ {
		if ns <= 1<<(histShift+uint(i)) {
			return i
		}
	}
	return histBuckets - 1
}

// Histogram is a lock-free fixed-bucket latency histogram. Writers call
// Observe concurrently; readers take a Snapshot at any time. Values are
// nanoseconds.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveN records n identical observations of ns in one shot. Per-frame
// measurements apportioned per element use it to keep observation counts
// element-denominated without paying n atomic passes per frame.
func (h *Histogram) ObserveN(ns int64, n uint64) {
	if n == 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(n)
	h.count.Add(n)
	h.sum.Add(ns * int64(n))
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed durations in ns.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed duration in ns (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) in ns by linear
// interpolation within the containing bucket. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// Snapshot is a consistent-enough point-in-time copy of a histogram. The
// copy is not atomic across buckets (writers may land between loads), but
// counts never decrease, so quantiles are monotone and the drift is at
// most the handful of observations racing the read.
type Snapshot struct {
	Counts [histBuckets]uint64
	Count  uint64
	Sum    int64
	MaxNS  int64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = h.sum.Load()
	s.MaxNS = h.max.Load()
	return s
}

// Buckets returns the number of buckets in every histogram.
func (Snapshot) Buckets() int { return histBuckets }

// Quantile estimates the q-quantile in ns from the snapshot.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := s.Counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			if i == histBuckets-1 || hi > s.MaxNS {
				// Unbounded or max-clipped bucket: report the observed max.
				hi = s.MaxNS
				if hi < lo {
					hi = lo
				}
			}
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return s.MaxNS
}

// Mean returns the mean observation in ns (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
