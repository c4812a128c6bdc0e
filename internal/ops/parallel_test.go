package ops

import (
	"math/rand"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/pubsub"
	"pipes/internal/snapshot"
	"pipes/internal/temporal"
)

// runParallel feeds per-input-ordered streams through p in global Start
// order, closes the inputs, then drains the hand-off buffers to
// completion (single-threaded; the harness covers scheduled execution).
func runParallel(p *Parallel, inputs ...[]temporal.Element) []temporal.Element {
	col := pubsub.NewCollector("col", 1)
	p.Subscribe(col, 0)
	idx := make([]int, len(inputs))
	for {
		best := -1
		for i, in := range inputs {
			if idx[i] >= len(in) {
				continue
			}
			if best < 0 || in[idx[i]].Start < inputs[best][idx[best]].Start {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p.ProcessBatch(temporal.Batch{inputs[best][idx[best]]}, best)
		idx[best]++
	}
	for i := range inputs {
		p.Done(i)
	}
	for _, b := range p.Buffers() {
		b.Drain(0)
	}
	col.Wait()
	return col.Elements()
}

func TestParallelGroupByMatchesSingleReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	key := func(v any) any { return v.(int) % 4 }
	for _, replicas := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 8; trial++ {
			in := randStream(rng, 60, 12, 15)
			p := NewParallel("pg", 1, replicas, key, func(r int) pubsub.Pipe {
				return NewGroupBy("g", key, aggregate.NewCount, nil)
			})
			out := runParallel(p, in)
			checkEquivalence(t, "parallel-groupby", out, func(probe temporal.Time) []any {
				groups := snapshot.GroupAggregate(snapshot.At(in, probe), key, func() interface {
					Insert(any)
					Value() any
				} {
					return aggregate.NewCount()
				})
				var want []any
				for _, kv := range groups {
					want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
				}
				return want
			}, in)
		}
	}
}

func TestParallelEquiJoinMatchesSingleReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	key := func(v any) any { return v.(int) % 3 }
	pred := func(l, r any) bool { return l.(int)%3 == r.(int)%3 }
	combine := func(l, r any) any { return Pair{Left: l, Right: r} }
	for _, replicas := range []int{2, 4} {
		for trial := 0; trial < 8; trial++ {
			a := randStream(rng, 30, 12, 12)
			b := randStream(rng, 30, 12, 12)
			p := NewParallel("pj", 2, replicas, key, func(r int) pubsub.Pipe {
				return NewEquiJoin("j", key, key, combine)
			})
			out := runParallel(p, a, b)
			checkEquivalence(t, "parallel-join", out, func(probe temporal.Time) []any {
				return snapshot.Join(snapshot.At(a, probe), snapshot.At(b, probe), pred, combine)
			}, a, b)
		}
	}
}

func TestParallelFilterPartitionsArbitraryKeys(t *testing.T) {
	// A stateless operator tolerates any partitioning key; use the raw
	// value so every replica sees a disjoint slice of the stream.
	rng := rand.New(rand.NewSource(23))
	pred := func(v any) bool { return v.(int)%2 == 0 }
	in := randStream(rng, 80, 40, 10)
	p := NewParallel("pf", 1, 4, func(v any) any { return v }, func(r int) pubsub.Pipe {
		return NewFilter("f", pred)
	})
	out := runParallel(p, in)
	checkEquivalence(t, "parallel-filter", out, func(probe temporal.Time) []any {
		return snapshot.Filter(snapshot.At(in, probe), pred)
	}, in)
}

func TestParallelBuffersAndReplicasExposed(t *testing.T) {
	p := NewParallel("px", 2, 3, func(v any) any { return v }, func(r int) pubsub.Pipe {
		return NewUnion("u", 2)
	})
	if got := len(p.Buffers()); got != 6 {
		t.Fatalf("Buffers() = %d, want replicas*inputs = 6", got)
	}
	if got := len(p.Replicas()); got != 3 {
		t.Fatalf("Replicas() = %d, want 3", got)
	}
	if p.Inputs() != 2 {
		t.Fatalf("Inputs() = %d, want 2", p.Inputs())
	}
}

func TestHashKeyBalances(t *testing.T) {
	// splitmix-mixed small ints should spread across buckets instead of
	// landing on v % n verbatim.
	const buckets = 4
	counts := make([]int, buckets)
	for v := 0; v < 4096; v++ {
		counts[hashKey(v)%buckets]++
	}
	for b, c := range counts {
		if c < 4096/buckets/2 || c > 4096/buckets*2 {
			t.Fatalf("bucket %d holds %d of 4096 keys — poor key mixing", b, c)
		}
	}
	// Distinct key types must be accepted (smoke: no panic, stable value).
	for _, k := range []any{42, int64(7), "sensor-3", 2.5, true, struct{ A int }{1}} {
		if hashKey(k) != hashKey(k) {
			t.Fatalf("hashKey not deterministic for %T", k)
		}
	}
}
