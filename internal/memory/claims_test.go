package memory

// Paper claim E7 as a deterministic count (EXPERIMENTS.md): a memory
// budget bounds a join's stored state and trades recall for it.

import (
	"testing"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// sheddingResult captures one E7 run: bounded memory, answer loss.
type sheddingResult struct {
	Results      int64
	ExactResults int64
	PeakBytes    int
	ShedEntries  int64
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
		mgr := NewManager(budget * 64)
		var sub *Subscription
		if budget > 0 {
			sub = mgr.Subscribe(j, DropState(), 1)
		}
		peak := 0
		one := make(temporal.Batch, 1)
		for i := 0; i < elements; i++ {
			ts := temporal.Time(i)
			one[0] = temporal.NewElement(i, ts, ts+temporal.Time(elements))
			j.ProcessBatch(one, i%2)
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
	return sheddingResult{Results: results, ExactResults: exact, PeakBytes: peak, ShedEntries: shed}
}

// TestClaimE7MemoryBoundHonoredAndRecallDegrades: each tighter budget
// keeps peak state near the budget and loses more of the answer.
func TestClaimE7MemoryBoundHonoredAndRecallDegrades(t *testing.T) {
	unlimited := runShedding(4000, 0)
	if unlimited.Recall() != 1 {
		t.Fatalf("unlimited recall = %v", unlimited.Recall())
	}
	prev := 2.0
	for _, budget := range []int{1000, 500, 250} {
		r := runShedding(4000, budget)
		// Peak memory near the budget (entries*64 bytes, with slack for
		// the enforcement interval and heap bookkeeping).
		if r.PeakBytes > budget*64*4 {
			t.Fatalf("budget %d: peak %dB far above bound", budget, r.PeakBytes)
		}
		if r.PeakBytes >= unlimited.PeakBytes {
			t.Fatalf("budget %d: peak %dB not below unlimited %dB", budget, r.PeakBytes, unlimited.PeakBytes)
		}
		rec := r.Recall()
		if rec <= 0 || rec >= 1 {
			t.Fatalf("budget %d: recall %v outside (0,1)", budget, rec)
		}
		if rec >= prev {
			t.Fatalf("recall did not degrade with budget: %v then %v", prev, rec)
		}
		prev = rec
		if r.ShedEntries == 0 {
			t.Fatalf("budget %d: nothing shed", budget)
		}
	}
}
