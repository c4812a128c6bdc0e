package pipes

// The paper-claim rows that have no cell in bench/ yet, one Benchmark
// function per row; this file is their only driver. EXPERIMENTS.md
// indexes every claim to its bench/ cell, its row here, or its test.

import (
	"fmt"
	"runtime"
	"testing"

	"pipes/internal/experiments"
	"pipes/internal/sched"
)

// E2: direct publish-subscribe hand-off vs queued connections.
func BenchmarkE2_DirectVsQueued(b *testing.B) {
	b.Run("direct", experiments.E2Direct)
	b.Run("queued", experiments.E2Queued)
}

// E3: one fused virtual node vs one scheduling unit per operator.
func BenchmarkE3_VirtualNodeFusion(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(bname("fused/len", n), experiments.E3Fusion(n))
		b.Run(bname("unfused/len", n), experiments.E3Unfused(n))
	}
}

// E4: the scheduling-strategy testbed (throughput + max backlog).
func BenchmarkE4_SchedulingStrategies(b *testing.B) {
	for _, s := range []struct {
		name string
		mk   sched.Factory
	}{
		{"fifo", sched.FIFO()},
		{"round-robin", sched.RoundRobin()},
		{"random", sched.Random(1)},
		{"chain", sched.Chain()},
		{"rate", sched.RateBased()},
		{"backlog", sched.HighestBacklog()},
	} {
		b.Run(s.name, experiments.E4Strategy(s.mk, 500))
	}
}

// E5: SweepArea implementations × window sizes.
func BenchmarkE5_SweepAreas(b *testing.B) {
	for _, kind := range []string{"list", "hash", "tree"} {
		for _, w := range []int{100, 1000, 10000} {
			b.Run(bname(kind+"/window", w), experiments.E5Join(kind, Time(w)))
		}
	}
}

// E6: 3-way MJoin vs binary join tree.
func BenchmarkE6_MultiwayJoin(b *testing.B) {
	b.Run("mjoin", experiments.E6MJoin)
	b.Run("binary-tree", experiments.E6BinaryTree)
}

// E7: load shedding under memory budgets (recall + peak memory).
func BenchmarkE7_LoadShedding(b *testing.B) {
	for _, budget := range []int{0, 2000, 1000, 500, 250} {
		b.Run(bname("budget", budget), experiments.E7Shedding(8000, budget))
	}
}

// E8: multi-query sharing vs per-query instantiation (operator counts).
func BenchmarkE8_MultiQuerySharing(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(bname("shared/queries", n), experiments.E8Sharing(n, true))
		b.Run(bname("unshared/queries", n), experiments.E8Sharing(n, false))
	}
}

// E9: coalesce as stream-rate reducer.
func BenchmarkE9_Coalesce(b *testing.B) {
	b.Run("with", experiments.E9WithCoalesce)
	b.Run("without", experiments.E9WithoutCoalesce)
}

// E14: stream⇄cursor translation round trip.
func BenchmarkE14_CursorBridge(b *testing.B) {
	b.Run("roundtrip", experiments.E14CursorBridge)
}

// E15: ripple-join online-estimate convergence.
func BenchmarkE15_RippleJoin(b *testing.B) {
	b.Run("converge", experiments.E15Ripple)
}

// A1 (ablation): invertible-aggregate fast path vs full recompute at
// every expiry boundary.
func BenchmarkA1_InvertibleAggregates(b *testing.B) {
	for _, w := range []int{64, 512} {
		b.Run(bname("incremental/window", w), experiments.A1GroupByIncremental(Time(w)))
		b.Run(bname("recompute/window", w), experiments.A1GroupByRecompute(Time(w)))
	}
}

// A2 (ablation): SweepArea reorganisation (purging) on vs off.
func BenchmarkA2_JoinPurging(b *testing.B) {
	b.Run("purge", experiments.A2JoinWithPurge(500))
	b.Run("no-purge", experiments.A2JoinNoPurge(500))
}

// A3 (ablation): cost of restoring global stream order in Union.
func BenchmarkA3_OrderRestoration(b *testing.B) {
	b.Run("ordered", experiments.A3UnionOrdered)
	b.Run("naive", experiments.A3UnionNaive)
}

func bname(prefix string, n int) string { return fmt.Sprintf("%s=%d", prefix, n) }

// E16: layer-3 threading modes (single thread vs thread-per-operator vs
// the paper's hybrid).
func BenchmarkE16_ThreadingModes(b *testing.B) {
	for _, mode := range []string{"single", "hybrid", "per-op"} {
		b.Run(mode, experiments.E16Threads(mode, 4, 100_000))
	}
}

// E17: partitioned intra-operator parallelism — a grouped aggregation
// hash-partitioned across replicas (ops.Parallel), serial baseline vs
// one scheduler worker per core.
func BenchmarkE17_PartitionedParallelism(b *testing.B) {
	cpus := runtime.NumCPU()
	replicas := cpus
	if replicas < 2 {
		replicas = 2
	}
	b.Run(bname("workers", 1), experiments.E17Parallel(1, replicas, 50_000))
	b.Run(bname("workers", cpus), experiments.E17Parallel(cpus, replicas, 50_000))
}
