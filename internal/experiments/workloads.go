package experiments

import (
	"testing"

	"pipes/internal/cql"
	"pipes/internal/memory"
	"pipes/internal/ops"
	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// sheddingResult captures one E7 run: bounded memory, answer loss.
type sheddingResult struct {
	BudgetEntries int // 0 = unlimited
	Results       int64
	ExactResults  int64
	PeakBytes     int
	ShedEntries   int64
}

// Recall returns the fraction of the exact answer retained.
func (r sheddingResult) Recall() float64 {
	if r.ExactResults == 0 {
		return 1
	}
	return float64(r.Results) / float64(r.ExactResults)
}

// runShedding executes a window self-join of `elements` elements under a
// memory budget of budgetEntries stored entries (0 = unlimited) with the
// drop-soonest-expiring strategy, enforcing every 64 arrivals.
func runShedding(elements, budgetEntries int) sheddingResult {
	run := func(budget int) (int64, int, int64) {
		// Consecutive elements land on alternating inputs; key on i/2 so
		// matches exist across the two inputs.
		key := func(v any) any { return (v.(int) / 2) % 20 }
		j := ops.NewEquiJoin("j", key, key, nil)
		c := pubsub.NewCounter("c", 1)
		j.Subscribe(c, 0)
		mgr := memory.NewManager(budget * 64)
		var sub *memory.Subscription
		if budget > 0 {
			sub = mgr.Subscribe(j, memory.DropState(), 1)
		}
		peak := 0
		push := feed(j)
		for i := 0; i < elements; i++ {
			ts := temporal.Time(i)
			push(temporal.NewElement(i, ts, ts+temporal.Time(elements)), i%2)
			if budget > 0 && i%64 == 63 {
				if u := j.MemoryUsage(); u > peak {
					peak = u
				}
				mgr.Step()
			}
		}
		if u := j.MemoryUsage(); u > peak {
			peak = u
		}
		var shed int64
		if sub != nil {
			shed = sub.ShedBytesTotal() / 64
		}
		return c.Count(), peak, shed
	}
	exact, _, _ := run(0)
	results, peak, shed := run(budgetEntries)
	if budgetEntries == 0 {
		results = exact
	}
	return sheddingResult{
		BudgetEntries: budgetEntries,
		Results:       results,
		ExactResults:  exact,
		PeakBytes:     peak,
		ShedEntries:   shed,
	}
}

// E7Shedding wraps runShedding as a benchmark reporting recall.
func E7Shedding(elements, budgetEntries int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := runShedding(elements, budgetEntries)
			b.ReportMetric(r.Recall(), "recall")
			b.ReportMetric(float64(r.PeakBytes), "peakB")
		}
	}
}

// sharingResult captures one E8 run.
type sharingResult struct {
	Queries   int
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

	total := 0
	counters := make([]*pubsub.Counter, n)
	var opts []*optimizer.Optimizer
	if shared {
		cat := optimizer.NewCatalog()
		cat.Register("bids", src, 1000)
		opts = append(opts, optimizer.New(cat))
	}
	for i, qs := range queries {
		var o *optimizer.Optimizer
		if shared {
			o = opts[0]
		} else {
			cat := optimizer.NewCatalog()
			cat.Register("bids", src, 1000)
			o = optimizer.New(cat)
			opts = append(opts, o)
		}
		parsed, err := cql.Parse(qs)
		if err != nil {
			return sharingResult{}, err
		}
		inst, err := o.AddQuery(parsed)
		if err != nil {
			return sharingResult{}, err
		}
		counters[i] = pubsub.NewCounter("c", 1)
		if err := inst.Root.Subscribe(counters[i], 0); err != nil {
			return sharingResult{}, err
		}
	}
	for _, o := range opts {
		total += o.OperatorCount()
	}
	pubsub.Drive(src)
	var results int64
	for _, c := range counters {
		c.Wait()
		results += c.Count()
	}
	return sharingResult{Queries: n, Operators: total, Results: results}, nil
}

// E8Sharing wraps runSharing as a benchmark reporting the operator count.
func E8Sharing(n int, shared bool) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := runSharing(n, 20000, shared)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Operators), "operators")
		}
	}
}
