package sched

// Paper claims as deterministic counts (EXPERIMENTS.md): scheduler
// activations and queue backlog, counted on one worker so every run
// takes the same decisions.

import (
	"fmt"
	"testing"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// e3BatchesPerElement runs n elements from a slice source through a chain
// of length pass-through filters on one worker and returns the scheduler
// activations per element. Fused, the chain is one virtual node behind a
// single boundary; unfused, every filter sits behind its own boundary.
func e3BatchesPerElement(t *testing.T, length, n int, fused bool) float64 {
	t.Helper()
	src := pubsub.NewSliceSource("src", chronons(n))
	s := New(Config{Workers: 1})
	s.Add(NewEmitterTask(src))
	out := pubsub.NewCounter("c", 1)
	var prev pubsub.Source = src
	for i := 0; i < length; i++ {
		f := ops.NewFilter(fmt.Sprintf("f%d", i), func(any) bool { return true })
		if fused && i > 0 {
			prev.Subscribe(f, 0)
		} else {
			bt, err := Boundary(fmt.Sprintf("q%d", i), prev, f, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(bt)
		}
		prev = f
	}
	prev.Subscribe(out, 0)
	s.Start()
	s.Wait()
	out.Wait()
	if out.Count() != int64(n) {
		t.Fatalf("length %d fused=%v: %d of %d elements arrived", length, fused, out.Count(), n)
	}
	return float64(s.Contention().Batches) / float64(n)
}

// TestClaimE3VirtualNodeActivationsFlatInChainLength: a fused chain costs
// the scheduler the same activations per element at any length; one
// scheduling unit per operator adds activations with every operator.
func TestClaimE3VirtualNodeActivationsFlatInChainLength(t *testing.T) {
	const n = 4096
	var fused0, prevUnfused, prevGap float64
	for i, length := range []int{2, 4, 8} {
		fused := e3BatchesPerElement(t, length, n, true)
		unfused := e3BatchesPerElement(t, length, n, false)
		gap := unfused - fused
		if i == 0 {
			fused0 = fused
		} else if fused != fused0 {
			t.Errorf("length %d: fused chain took %.4f activations per element, %.4f at length 2", length, fused, fused0)
		}
		if unfused <= prevUnfused {
			t.Errorf("length %d: unfused chain took %.4f activations per element, not above %.4f", length, unfused, prevUnfused)
		}
		if gap <= prevGap {
			t.Errorf("length %d: unfused−fused gap %.4f did not widen from %.4f", length, gap, prevGap)
		}
		prevUnfused, prevGap = unfused, gap
		t.Logf("length %d: activations per element fused %.4f, unfused %.4f", length, fused, unfused)
	}
}

// e4Result is one scheduling-strategy simulation outcome.
type e4Result struct {
	Strategy   string
	MaxBacklog int   // peak total queued elements (memory proxy)
	SumBacklog int64 // time-integrated backlog (average memory proxy)
	Ticks      int   // ticks until both queues drained
}

// runE4 reproduces the Chain-scheduling setting [4] inside the layer-2
// framework: a two-stage plan src→q1→opA(σ=1.0)→q2→opB(σ=0.1)→sink with
// bursty external arrivals into q1 and a bounded per-tick service
// capacity. The strategy decides, tick by tick, which queue's virtual
// node runs. Every node carries a flight block and no profile is set: σ is
// what the blocks count. Chain (priority (1−σ)/cost) learns that q2's
// operator destroys tuples, prefers q2 and should minimise queue memory;
// FIFO-style static order prefers q1 (moving tuples, not destroying them)
// and accumulates backlog.
func runE4(strategy Factory, bursts, burstSize, capacity int) e4Result {
	opA := ops.NewFilter("opA", func(v any) bool { return true })
	opB := ops.NewFilter("opB", func(v any) bool { return v.(int)%10 == 0 })
	sinkC := pubsub.NewCounter("c", 1)
	q1 := pubsub.NewBuffer("q1")
	q2 := pubsub.NewBuffer("q2")
	q1.Subscribe(opA, 0)
	opA.Subscribe(q2, 0)
	q2.Subscribe(opB, 0)
	opB.Subscribe(sinkC, 0)

	attachBlocks(q1, opA, q2, opB)
	tasks := []Task{NewBufferTask(q1), NewBufferTask(q2)}
	strat := strategy()

	res := e4Result{Strategy: strat.Name()}
	next := 0
	one := make(temporal.Batch, 1)
	for tick := 0; ; tick++ {
		if tick < bursts {
			for i := 0; i < burstSize; i++ {
				one[0] = temporal.At(next, temporal.Time(next))
				q1.ProcessBatch(one, 0)
				next++
			}
		}
		for c := 0; c < capacity; c++ {
			idx := strat.Next(tasks)
			if idx < 0 {
				break
			}
			tasks[idx].RunBatch(1)
		}
		backlog := q1.Len() + q2.Len()
		if backlog > res.MaxBacklog {
			res.MaxBacklog = backlog
		}
		res.SumBacklog += int64(backlog)
		if tick >= bursts && backlog == 0 {
			res.Ticks = tick
			return res
		}
		if tick > bursts*100 { // safety: strategy failed to drain
			res.Ticks = tick
			return res
		}
	}
}

// TestClaimE4ChainMinimizesBacklog: Chain scheduling keeps less queued
// than FIFO, and rate-based scheduling trades memory for output rate.
func TestClaimE4ChainMinimizesBacklog(t *testing.T) {
	chain := runE4(Chain(), 200, 30, 35)
	fifo := runE4(FIFO(), 200, 30, 35)
	rate := runE4(RateBased(), 200, 30, 35)
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
		t.Logf("%s: peak backlog %d, summed backlog %d, %d ticks", r.Strategy, r.MaxBacklog, r.SumBacklog, r.Ticks)
		if r.Ticks >= 200*100 {
			t.Fatalf("%s failed to drain", r.Strategy)
		}
	}
}
