package optimizer

// Paper claim E8 as a deterministic count (EXPERIMENTS.md): one shared
// optimizer builds the physical operators of overlapping queries once.

import (
	"testing"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// sharingResult captures one E8 run.
type sharingResult struct {
	Operators int
	Results   int64
}

// runSharing registers n overlapping CQL queries — shared through one
// optimizer or deliberately unshared (fresh optimizer per query) — pumps
// `elements` bid-like tuples and reports the physical operator count.
func runSharing(n, elements int, shared bool) (sharingResult, error) {
	queries := make([]string, n)
	for i := range queries {
		// All queries share scan+window+filter; half also share the
		// projection.
		if i%2 == 0 {
			queries[i] = `SELECT auction, price FROM bids [RANGE 60000] WHERE price > 500`
		} else {
			queries[i] = `SELECT auction FROM bids [RANGE 60000] WHERE price > 500`
		}
	}
	elems := make([]temporal.Element, elements)
	for i := range elems {
		elems[i] = temporal.At(cql.Tuple{"auction": i % 50, "price": float64(i % 1000)},
			temporal.Time(i))
	}
	src := pubsub.NewSliceSource("bids", elems)

	newOptimizer := func() *Optimizer {
		cat := NewCatalog()
		cat.Register("bids", src, 1000)
		return New(cat)
	}
	var opts []*Optimizer
	if shared {
		opts = append(opts, newOptimizer())
	}
	counters := make([]*pubsub.Counter, n)
	for i, qs := range queries {
		if !shared {
			opts = append(opts, newOptimizer())
		}
		parsed, err := cql.Parse(qs)
		if err != nil {
			return sharingResult{}, err
		}
		inst, err := opts[len(opts)-1].AddQuery(parsed)
		if err != nil {
			return sharingResult{}, err
		}
		counters[i] = pubsub.NewCounter("c", 1)
		if err := inst.Root.Subscribe(counters[i], 0); err != nil {
			return sharingResult{}, err
		}
	}
	var res sharingResult
	for _, o := range opts {
		res.Operators += o.OperatorCount()
	}
	pubsub.Drive(src)
	for _, c := range counters {
		c.Wait()
		res.Results += c.Count()
	}
	return res, nil
}

// TestClaimE8OptimizerShares: sharing builds fewer operators than
// per-query instantiation for the same results, and keeps the count flat
// as queries are added.
func TestClaimE8OptimizerShares(t *testing.T) {
	for _, n := range []int{2, 4} {
		shared, err := runSharing(n, 2000, true)
		if err != nil {
			t.Fatal(err)
		}
		unshared, err := runSharing(n, 2000, false)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Operators >= unshared.Operators {
			t.Fatalf("n=%d: shared %d operators !< unshared %d",
				n, shared.Operators, unshared.Operators)
		}
		if shared.Results != unshared.Results {
			t.Fatalf("n=%d: sharing changed results: %d vs %d",
				n, shared.Results, unshared.Results)
		}
	}
	// Sharing keeps the operator count (nearly) flat as queries grow.
	s2, _ := runSharing(2, 1000, true)
	s8, _ := runSharing(8, 1000, true)
	if s8.Operators != s2.Operators {
		t.Fatalf("shared operators grew: %d → %d", s2.Operators, s8.Operators)
	}
	u2, _ := runSharing(2, 1000, false)
	u8, _ := runSharing(8, 1000, false)
	if u8.Operators != 4*u2.Operators {
		t.Fatalf("unshared operators not linear: %d → %d", u2.Operators, u8.Operators)
	}
}
