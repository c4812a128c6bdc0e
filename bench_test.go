package pipes

// The benchmark harness regenerating the paper's claims; one Benchmark
// function per experiment of DESIGN.md's index. Expected shapes (who
// wins, by what factor) are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pipes/internal/experiments"
	"pipes/internal/nexmark"
	"pipes/internal/sched"
	"pipes/internal/traffic"
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

// E10: metadata decoration overhead.
func BenchmarkE10_MetadataOverhead(b *testing.B) {
	b.Run("off", experiments.E10Metadata("off"))
	b.Run("counts", experiments.E10Metadata("counts"))
	b.Run("full", experiments.E10Metadata("full"))
}

// E12: traffic-management queries end to end.
func BenchmarkE12_Traffic(b *testing.B) {
	b.Run("avg-hov-speed", experiments.E12Traffic(traffic.QueryAvgHOVSpeed))
	b.Run("section-averages", experiments.E12Traffic(traffic.QueryAvgSectionSpeed))
}

// E13: NEXMark-style auction queries end to end.
func BenchmarkE13_NEXMark(b *testing.B) {
	b.Run("highest-bid", experiments.E13NEXMark(nexmark.QueryHighestBid))
	b.Run("currency", experiments.E13NEXMark(nexmark.QueryCurrencyConversion))
	b.Run("bid-counts", experiments.E13NEXMark(nexmark.QueryBidCounts))
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

// E18: telemetry overhead — the avg-HOV-speed traffic query undecorated,
// wrapped in metadata monitors, and with 1-in-128 element tracing on top.
func BenchmarkE18_TelemetryOverhead(b *testing.B) {
	b.Run("bare", experiments.E18Telemetry(experiments.TelemetryOff, 0))
	b.Run("monitored", experiments.E18Telemetry(experiments.TelemetryMonitored, 0))
	b.Run("traced-1in128", experiments.E18Telemetry(experiments.TelemetryTraced, 128))
}

// E19: checkpoint overhead — the avg-HOV-speed traffic query bare, with
// 1s barrier checkpoints (the deployment-realistic rate for multi-MB
// state) into in-memory and file-backed stores, plus a 100ms stress
// variant showing the cost of re-snapshotting a large window 10×/s.
func BenchmarkE19_CheckpointOverhead(b *testing.B) {
	b.Run("off", experiments.E19Checkpoint(experiments.CheckpointOff, 0))
	b.Run("mem-1s", experiments.E19Checkpoint(experiments.CheckpointMem, time.Second))
	b.Run("file-1s", experiments.E19Checkpoint(experiments.CheckpointFile, time.Second))
	b.Run("mem-100ms", experiments.E19Checkpoint(experiments.CheckpointMem, 100*time.Millisecond))
}

// E22: incremental checkpoints — the E19 mem-100ms stress row rerun under
// the two chain configurations: full snapshots every round and the
// base+delta chain at the default cadence, both encoded off the barrier.
// Extra metrics report per-round barrier-stall ns and written-vs-full
// bytes; the written/full ratio is the steady-state bytes reduction.
func BenchmarkE22_IncrementalCheckpoints(b *testing.B) {
	b.Run("full-offbarrier", experiments.E22Incremental(experiments.CheckpointMem, 100*time.Millisecond, 1))
	b.Run("delta-k8", experiments.E22Incremental(experiments.CheckpointMem, 100*time.Millisecond, 0))
}

// E20: frame-size sweep on the filter/map-dense traffic chain (frame 1 is
// the paper's per-element hand-off), plus the E19 graph rerun at frame 64
// (checkpoint overhead must survive batching).
func BenchmarkE20_BatchedTransfer(b *testing.B) {
	for _, f := range []int{1, 8, 64, 256} {
		b.Run(bname("frame", f), experiments.E20Batch(f, experiments.CheckpointOff, 0))
	}
	for _, f := range []int{1, 8, 64, 256} {
		b.Run(bname("segment/frame", f), experiments.E20Segment(f))
	}
	b.Run(bname("cp-1s/frame", 1), experiments.E20Batch(1, experiments.CheckpointMem, time.Second))
	b.Run(bname("cp-1s/frame", 64), experiments.E20Batch(64, experiments.CheckpointMem, time.Second))
	b.Run("e19-frame64/off", experiments.E19CheckpointBatched(experiments.CheckpointOff, 0, 64))
	b.Run("e19-frame64/mem-1s", experiments.E19CheckpointBatched(experiments.CheckpointMem, time.Second, 64))
	b.Run("e19-frame64/file-1s", experiments.E19CheckpointBatched(experiments.CheckpointFile, time.Second, 64))
}

// E21: monitoring overhead on the batch lane — the E20 chain at frame 64
// bare, with the flight recorder attached at every hop, and with the full
// default monitoring stack (flight + metadata decorators). The ≤8%
// acceptance envelope is the flight recorder (all its surfaces) vs bare;
// the flight+monitors variant reports the complete stack for context.
func BenchmarkE21_FlightOverhead(b *testing.B) {
	b.Run("off", experiments.E21FlightOverhead(64, experiments.FlightOff))
	b.Run("flight", experiments.E21FlightOverhead(64, experiments.FlightOn))
	b.Run("flight+monitors", experiments.E21FlightOverhead(64, experiments.FlightFull))
	b.Run(bname("flight/frame", 8), experiments.E21FlightOverhead(8, experiments.FlightOn))
}
