package experiments

import (
	"testing"
	"time"

	"pipes/internal/cql"
	"pipes/internal/ft"
	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/traffic"
)

// CheckpointMode selects the fault-tolerance configuration for E19.
type CheckpointMode int

const (
	// CheckpointOff runs the bare graph: no barrier channel, no manager.
	CheckpointOff CheckpointMode = iota
	// CheckpointMem checkpoints on a timer into the in-memory store.
	CheckpointMem
	// CheckpointFile checkpoints on a timer into a file-backed store
	// (fsync-free tmp+rename seal, like a deployment would use).
	CheckpointFile
)

func init() {
	// Traffic readings surface as cql.Tuple values, so operator snapshots
	// in E19 serialise tuples.
	ft.RegisterType(cql.Tuple{})
}

// E19Checkpoint measures the cost of the fault-tolerance subsystem on the
// traffic workload (avg-HOV-speed query, b.N readings): the same graph
// runs bare, with timed checkpoints into an in-memory store, and with
// timed checkpoints into a file-backed store. The checkpointed variants
// pay for barrier injection and alignment on the hot path plus state
// snapshots and store writes off it; comparing ns/op against the bare
// variant gives the per-element overhead.
func E19Checkpoint(mode CheckpointMode, interval time.Duration) func(b *testing.B) {
	return e19Checkpoint(mode, interval, 0, chainCfg{})
}

// chainCfg selects the incremental-checkpoint configuration for E22.
// The zero value means "engine defaults, report only the E19 metrics".
type chainCfg struct {
	baseEvery int  // full-base cadence; 0 = engine default, 1 = every round full
	report    bool // report per-round stall/written/full metrics
}

// E22Incremental measures what the incremental delta chain buys on the
// E19 graph: the same workload runs with full snapshots every round and
// with delta chains at the default base cadence, both encoded off the
// barrier. Per-round barrier-stall nanoseconds and written-vs-full bytes
// come from the manager's round accounting — the bytes ratio is the
// steady-state reduction the chain achieves. (The pre-chain baseline that
// encoded under the barrier stall is a recorded row in
// BENCH_checkpoint.json; its code path is gone.)
func E22Incremental(mode CheckpointMode, interval time.Duration, baseEvery int) func(b *testing.B) {
	return e19Checkpoint(mode, interval, 0, chainCfg{baseEvery: baseEvery, report: true})
}

// E19CheckpointBatched reruns E19 at a larger frame size: the identical
// optimizer-built graph driven frame elements per activation, with the
// CheckpointSource injecting barriers strictly between frames (the
// punctuation-cut rule). Comparing against E19Checkpoint shows whether
// batching preserves the ≤15% checkpoint-overhead budget.
func E19CheckpointBatched(mode CheckpointMode, interval time.Duration, frame int) func(b *testing.B) {
	return e19Checkpoint(mode, interval, frame, chainCfg{})
}

func e19Checkpoint(mode CheckpointMode, interval time.Duration, frame int, cc chainCfg) func(b *testing.B) {
	return func(b *testing.B) {
		gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: b.N})
		cat := optimizer.NewCatalog()
		src := gen.Source("traffic")

		var (
			mgr *ft.Manager
			cs  *ft.CheckpointSource
		)
		feed := pubsub.FrameEmitter(src)
		if mode != CheckpointOff {
			store := ft.CheckpointStore(ft.NewMemStore())
			if mode == CheckpointFile {
				fs, err := ft.NewFileStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				store = fs
			}
			mgr = ft.NewManager(store)
			if cc.baseEvery > 0 {
				mgr.SetBaseEvery(cc.baseEvery)
			}
			cs = ft.NewCheckpointSource(src)
			mgr.RegisterSource(cs)
			feed = cs
			cat.Register("traffic", cs, 1000)
		} else {
			cat.Register("traffic", src, 1000)
		}
		o := optimizer.New(cat)

		parsed, err := cql.Parse(traffic.QueryAvgHOVSpeed)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := o.AddQuery(parsed)
		if err != nil {
			b.Fatal(err)
		}
		if mgr != nil {
			registered := 0
			for _, p := range inst.Created {
				hooked, okH := p.(ft.BarrierHooked)
				saver, okS := p.(ft.StateSaver)
				if okH && okS {
					mgr.RegisterOperator(hooked, saver)
					registered++
				}
			}
			if registered == 0 {
				b.Fatal("no stateful operators registered; E19 would measure nothing")
			}
		}
		c := pubsub.NewCounter("c", 1)
		if err := inst.Root.Subscribe(c, 0); err != nil {
			b.Fatal(err)
		}

		b.ReportAllocs()
		b.ResetTimer()
		if mgr != nil {
			mgr.Start(interval)
		}
		pubsub.DriveBatched(feed, frame)
		if mgr != nil {
			mgr.Stop()
		}
		b.StopTimer()
		if c.Count() == 0 && b.N > 1000 {
			b.Fatal("query produced no output")
		}
		if mgr != nil {
			// The trigger is a wall-clock interval, so only a run that lasted
			// at least two of them must have sealed a round.
			if mgr.Completed() == 0 && b.Elapsed() >= 2*interval {
				b.Fatal("no checkpoint sealed during the run")
			}
			b.ReportMetric(float64(mgr.Completed()), "checkpoints")
			b.ReportMetric(float64(mgr.LastBytes()), "cp-bytes")
			if cc.report {
				if rounds := float64(mgr.Completed()); rounds > 0 {
					b.ReportMetric(float64(mgr.StallNanosTotal())/rounds, "stall-ns/round")
					b.ReportMetric(float64(mgr.WrittenBytesTotal())/rounds, "written-B/round")
					b.ReportMetric(float64(mgr.FullBytesTotal())/rounds, "full-B/round")
				}
			}
		}
	}
}
