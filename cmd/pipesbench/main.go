// pipesbench runs the experiment suite (DESIGN.md's per-experiment index)
// and prints one table per experiment, paper-style: who wins, by what
// factor. It reuses the exact benchmark bodies behind `go test -bench`.
//
// Usage:
//
//	pipesbench            # every experiment
//	pipesbench E2 E5 E8   # a subset
package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pipes/internal/experiments"
	"pipes/internal/nexmark"
	"pipes/internal/sched"
	"pipes/internal/temporal"
	"pipes/internal/traffic"
)

func main() {
	want := map[string]bool{}
	for _, a := range os.Args[1:] {
		want[strings.ToUpper(a)] = true
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	if run("E2") {
		section("E2 — direct publish-subscribe vs queued connections (ns/element)")
		row("direct", bench(experiments.E2Direct))
		row("queued", bench(experiments.E2Queued))
	}
	if run("E3") {
		section("E3 — virtual-node fusion (ns/element by chain length)")
		for _, n := range []int{2, 4, 8} {
			row(fmt.Sprintf("fused   len=%d", n), bench(experiments.E3Fusion(n)))
			row(fmt.Sprintf("unfused len=%d", n), bench(experiments.E3Unfused(n)))
		}
	}
	if run("E4") {
		section("E4 — scheduling strategies under bursty overload (backlog = memory)")
		for _, s := range []struct {
			name string
			mk   sched.Factory
		}{
			{"fifo", sched.FIFO()}, {"round-robin", sched.RoundRobin()},
			{"random", sched.Random(1)}, {"chain", sched.Chain()},
			{"rate", sched.RateBased()}, {"backlog", sched.HighestBacklog()},
		} {
			r := experiments.RunE4(s.mk, 500, 30, 35)
			fmt.Printf("  %-14s maxq=%-8d meanq=%-10.0f drained-after=%d ticks\n",
				s.name, r.MaxBacklog, float64(r.SumBacklog)/float64(r.Ticks+1), r.Ticks)
		}
	}
	if run("E5") {
		section("E5 — SweepArea implementations × window size (ns/element)")
		for _, kind := range []string{"list", "hash", "tree"} {
			for _, w := range []int{100, 1000, 10000} {
				row(fmt.Sprintf("%-4s window=%-6d", kind, w),
					bench(experiments.E5Join(kind, temporal.Time(w))))
			}
		}
	}
	if run("E6") {
		section("E6 — 3-way MJoin vs binary join tree (ns/element)")
		row("mjoin", bench(experiments.E6MJoin))
		row("binary-tree", bench(experiments.E6BinaryTree))
	}
	if run("E7") {
		section("E7 — load shedding under memory budgets (self-join, 8k elements)")
		for _, budget := range []int{0, 2000, 1000, 500, 250} {
			r := experiments.RunShedding(8000, budget)
			label := fmt.Sprintf("%d entries", budget)
			if budget == 0 {
				label = "unlimited"
			}
			fmt.Printf("  budget=%-12s peak=%-8dB recall=%.3f shed=%d entries\n",
				label, r.PeakBytes, r.Recall(), r.ShedEntries)
		}
	}
	if run("E8") {
		section("E8 — multi-query optimization: shared vs unshared plans")
		for _, n := range []int{2, 4, 8} {
			s, err := experiments.RunSharing(n, 20000, true)
			u, err2 := experiments.RunSharing(n, 20000, false)
			if err != nil || err2 != nil {
				fmt.Println("  error:", err, err2)
				continue
			}
			fmt.Printf("  queries=%d  shared-operators=%-3d unshared-operators=%-3d (results equal: %v)\n",
				n, s.Operators, u.Operators, s.Results == u.Results)
		}
	}
	if run("E9") {
		section("E9 — coalesce rate reduction (output elements per input)")
		row("with coalesce", bench(experiments.E9WithCoalesce))
		row("without", bench(experiments.E9WithoutCoalesce))
	}
	if run("E10") {
		section("E10 — secondary-metadata overhead on one operator (ns/element)")
		for _, mode := range []string{"off", "counts", "full"} {
			row(mode, bench(experiments.E10Metadata(mode)))
		}
	}
	if run("E12") {
		section("E12 — traffic-management queries (ns/element end to end)")
		row("avg-hov-speed", bench(experiments.E12Traffic(traffic.QueryAvgHOVSpeed)))
		row("section-averages", bench(experiments.E12Traffic(traffic.QueryAvgSectionSpeed)))
	}
	if run("E13") {
		section("E13 — auction queries (ns/element end to end)")
		row("highest-bid", bench(experiments.E13NEXMark(nexmark.QueryHighestBid)))
		row("currency", bench(experiments.E13NEXMark(nexmark.QueryCurrencyConversion)))
		row("bid-counts", bench(experiments.E13NEXMark(nexmark.QueryBidCounts)))
	}
	if run("E14") {
		section("E14 — stream⇄cursor round trip (ns/element)")
		row("roundtrip", bench(experiments.E14CursorBridge))
	}
	if run("E15") {
		section("E15 — ripple join online estimate")
		r := testing.Benchmark(experiments.E15Ripple)
		fmt.Printf("  estimate stays within 5%% after consuming %.1f%% of the input\n",
			100*r.Extra["converge-frac"])
	}
	if run("E16") {
		section("E16 — layer-3 threading modes (4 chains, 100k elements)")
		for _, mode := range []string{"single", "hybrid", "per-op"} {
			row(mode, bench(experiments.E16Threads(mode, 4, 100_000)))
		}
	}
	if run("E17") {
		cpus := runtime.NumCPU()
		replicas := cpus
		if replicas < 2 {
			replicas = 2
		}
		section(fmt.Sprintf("E17 — partitioned parallelism (%d replicas, 50k elements, %d CPUs)", replicas, cpus))
		row("workers=1", bench(experiments.E17Parallel(1, replicas, 50_000)))
		row(fmt.Sprintf("workers=%d", cpus), bench(experiments.E17Parallel(cpus, replicas, 50_000)))
	}
	if run("E18") {
		section("E18 — telemetry overhead (avg-HOV-speed query, ns/element)")
		row("bare", bench(experiments.E18Telemetry(experiments.TelemetryOff, 0)))
		row("monitored", bench(experiments.E18Telemetry(experiments.TelemetryMonitored, 0)))
		row("traced-1in128", bench(experiments.E18Telemetry(experiments.TelemetryTraced, 128)))
	}
	if run("E19") {
		section("E19 — checkpoint overhead (avg-HOV-speed query, ns/element)")
		row("off", bench(experiments.E19Checkpoint(experiments.CheckpointOff, 0)))
		row("mem-1s", bench(experiments.E19Checkpoint(experiments.CheckpointMem, time.Second)))
		row("file-1s", bench(experiments.E19Checkpoint(experiments.CheckpointFile, time.Second)))
	}
	if run("E22") {
		section("E22 — incremental checkpoints (avg-HOV-speed query, mem store @100ms stress)")
		row("full-offbarrier", bench(experiments.E22Incremental(experiments.CheckpointMem, 100*time.Millisecond, 1)))
		row("delta-k8", bench(experiments.E22Incremental(experiments.CheckpointMem, 100*time.Millisecond, 0)))
	}
	if run("E20") {
		section("E20 — frame-size sweep (filter/map-dense traffic chain, ns/element)")
		for _, f := range []int{1, 8, 64, 256} {
			row(fmt.Sprintf("frame=%d", f), bench(experiments.E20Batch(f, experiments.CheckpointOff, 0)))
		}
		section("E20 — filter/map-dense segment alone (selection/projection hops, ns/element)")
		for _, f := range []int{1, 8, 64, 256} {
			row(fmt.Sprintf("frame=%d", f), bench(experiments.E20Segment(f)))
		}
		section("E20 — full query with checkpointing (ns/element)")
		row("frame=1+cp-1s", bench(experiments.E20Batch(1, experiments.CheckpointMem, time.Second)))
		row("frame=64+cp-1s", bench(experiments.E20Batch(64, experiments.CheckpointMem, time.Second)))
		section("E20 — checkpoint overhead at frame 64 (avg-HOV-speed query, ns/element)")
		row("off", bench(experiments.E19CheckpointBatched(experiments.CheckpointOff, 0, 64)))
		row("mem-1s", bench(experiments.E19CheckpointBatched(experiments.CheckpointMem, time.Second, 64)))
		row("file-1s", bench(experiments.E19CheckpointBatched(experiments.CheckpointFile, time.Second, 64)))
	}
	if run("E21") {
		section("E21 — flight-recorder overhead (E20 full chain, frame=64, ns/element)")
		row("off", bench(experiments.E21FlightOverhead(64, experiments.FlightOff)))
		row("flight", bench(experiments.E21FlightOverhead(64, experiments.FlightOn)))
		row("flight+monitors", bench(experiments.E21FlightOverhead(64, experiments.FlightFull)))
		row("flight/frame=8", bench(experiments.E21FlightOverhead(8, experiments.FlightOn)))
	}
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len([]rune(title))))
}

func bench(fn func(*testing.B)) testing.BenchmarkResult { return testing.Benchmark(fn) }

func row(name string, r testing.BenchmarkResult) {
	extras := ""
	for k, v := range r.Extra {
		extras += fmt.Sprintf("  %s=%.4g", k, v)
	}
	fmt.Printf("  %-22s %10.1f ns/op  %4d B/op%s\n",
		name, float64(r.NsPerOp()), r.AllocedBytesPerOp(), extras)
}
