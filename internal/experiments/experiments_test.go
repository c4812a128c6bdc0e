package experiments

// Shape tests: the experiment drivers must reproduce the qualitative
// results the paper claims, on small inputs, deterministically.

import (
	"testing"

	"pipes/internal/sched"
)

func TestE4ChainMinimizesBacklog(t *testing.T) {
	chain := runE4(sched.Chain(), 200, 30, 35)
	fifo := runE4(sched.FIFO(), 200, 30, 35)
	rate := runE4(sched.RateBased(), 200, 30, 35)
	if chain.MaxBacklog >= fifo.MaxBacklog {
		t.Fatalf("chain maxq %d not below fifo %d", chain.MaxBacklog, fifo.MaxBacklog)
	}
	if chain.SumBacklog >= fifo.SumBacklog {
		t.Fatalf("chain mean backlog %d not below fifo %d", chain.SumBacklog, fifo.SumBacklog)
	}
	// Rate-based trades memory for output rate: its backlog must not beat
	// chain's.
	if rate.MaxBacklog < chain.MaxBacklog {
		t.Fatalf("rate-based maxq %d below chain %d", rate.MaxBacklog, chain.MaxBacklog)
	}
	for _, r := range []e4Result{chain, fifo, rate} {
		if r.Ticks >= 200*100 {
			t.Fatalf("%s failed to drain", r.Strategy)
		}
	}
}

func TestE7MemoryBoundHonoredAndRecallDegrades(t *testing.T) {
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

func TestE8OptimizerShares(t *testing.T) {
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

func TestE5WorkloadProducesMatches(t *testing.T) {
	// Guard against key/parity mistakes that would silently benchmark an
	// empty join: the E5 element pattern (value i on input i%2, keys on
	// i/2) must produce matches.
	counts := map[string]int64{}
	for _, kind := range []string{"list", "hash", "tree"} {
		counts[kind] = e5Matches(kind, 2000, 100)
		if counts[kind] == 0 {
			t.Errorf("%s: E5 workload produced no join results", kind)
		}
	}
	if counts["list"] != counts["hash"] || counts["hash"] != counts["tree"] {
		t.Errorf("area kinds disagree on E5 workload: %v", counts)
	}
}

func TestE9CoalesceReducesOutputRate(t *testing.T) {
	const n = 10000
	without := runCoalesce(n, false)
	with := runCoalesce(n, true)
	if without < n/2 {
		t.Fatalf("baseline emits %d outputs for %d inputs: the workload no longer changes per element", without, n)
	}
	if with == 0 || with >= without {
		t.Fatalf("coalesce emitted %d outputs, baseline %d: want strictly fewer and non-empty", with, without)
	}
}

func TestE15RippleEstimateSettlesEarly(t *testing.T) {
	firstStable, steps := runRipple()
	if firstStable == 0 || firstStable >= steps {
		t.Fatalf("estimate settled at step %d of %d: want inside the run, before the inputs are exhausted", firstStable, steps)
	}
}
