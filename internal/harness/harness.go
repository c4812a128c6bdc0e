// Package harness runs a query plan under randomized multi-worker
// scheduling and checks the output against a deterministic
// single-threaded reference via snapshot equivalence (SEMANTICS.md). It
// is the repo's standard instrument for proving an operator graph
// race-safe: the same plan is executed under 1..N workers, shuffled
// strategies, tiny batch sizes and injected yields, and every run must be
// snapshot-equivalent to the serial run. Intended for use under
// `go test -race`.
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/snapshot"
	"pipes/internal/temporal"
)

// Plan is one operator graph under test. Build is called once per run
// with fresh slice sources (one per Inputs entry, in order) and must wire
// a fresh operator graph onto them, returning the graph's output and any
// extra tasks beyond the input emitters (boundary BufferTasks). Build must
// not retain state between calls: every run gets its own operators.
type Plan struct {
	Name   string
	Inputs [][]temporal.Element
	Build  func(inputs []pubsub.Source) (out pubsub.Source, extra []sched.Task, err error)
}

// Config parameterises one execution of a plan.
type Config struct {
	// Workers, Strategy and BatchSize are passed to the scheduler (zero
	// values = scheduler defaults).
	Workers   int
	Strategy  sched.Factory
	BatchSize int
	// StrategyName labels Strategy in failure messages.
	StrategyName string
	// JitterSeed, when non-zero, wraps every task so batches are split at
	// random points with scheduling yields in between — widening the
	// space of interleavings the race detector observes.
	JitterSeed int64
	// Timeout aborts a wedged run (default 30s).
	Timeout time.Duration
}

func (c Config) String() string {
	name := c.StrategyName
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("workers=%d strategy=%s batch=%d jitter=%d",
		c.Workers, name, c.BatchSize, c.JitterSeed)
}

// Run executes the plan once under cfg and returns the collected output.
func Run(plan Plan, cfg Config) ([]temporal.Element, error) {
	if plan.Build == nil {
		return nil, fmt.Errorf("harness: plan %q has no Build", plan.Name)
	}
	sources := make([]pubsub.Source, len(plan.Inputs))
	emitters := make([]pubsub.Emitter, len(plan.Inputs))
	for i, in := range plan.Inputs {
		src := pubsub.NewSliceSource(fmt.Sprintf("in%d", i), in)
		sources[i] = src
		emitters[i] = src
	}
	out, extra, err := plan.Build(sources)
	if err != nil {
		return nil, fmt.Errorf("harness: plan %q: %w", plan.Name, err)
	}
	col := pubsub.NewCollector("out", 1)
	if err := out.Subscribe(col, 0); err != nil {
		return nil, fmt.Errorf("harness: plan %q: %w", plan.Name, err)
	}

	s := sched.New(sched.Config{Workers: cfg.Workers, Strategy: cfg.Strategy, BatchSize: cfg.BatchSize})
	var jitter *rand.Rand
	if cfg.JitterSeed != 0 {
		jitter = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	addTask := func(t sched.Task) {
		if jitter != nil {
			// Per-task rng: the activation lock serialises RunBatch, so
			// the rng needs no further synchronisation.
			t = &jitterTask{inner: t, rng: rand.New(rand.NewSource(jitter.Int63()))}
		}
		s.Add(t)
	}
	for _, e := range emitters {
		addTask(sched.NewEmitterTask(e))
	}
	for _, t := range extra {
		addTask(t)
	}
	s.Start()

	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	finished := make(chan struct{})
	go func() { s.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(timeout):
		s.Stop()
		return nil, fmt.Errorf("harness: plan %q wedged after %v under %v", plan.Name, timeout, cfg)
	}
	select {
	case <-col.DoneC():
	case <-time.After(timeout):
		return nil, fmt.Errorf("harness: plan %q: scheduler finished but done never reached the sink under %v", plan.Name, cfg)
	}
	return col.Elements(), nil
}

// Reference executes the plan single-threaded with deterministic FIFO
// scheduling — the serial oracle the stressed runs are compared against.
func Reference(plan Plan) ([]temporal.Element, error) {
	return Run(plan, Config{Workers: 1, Strategy: sched.FIFO(), StrategyName: "fifo", BatchSize: 64})
}

// Equivalent reports whether got is snapshot-equivalent to ref: got must
// satisfy the stream order invariant, and at every interval boundary of
// either stream the two snapshots must be equal multisets. Physical
// representation (element granularity, emission order of simultaneous
// elements) may differ; logical content may not.
func Equivalent(ref, got []temporal.Element) error {
	if !temporal.OrderedByStart(got) {
		return fmt.Errorf("output violates non-decreasing start order")
	}
	for _, probe := range snapshot.Boundaries(ref, got) {
		w := snapshot.At(ref, probe)
		g := snapshot.At(got, probe)
		if !snapshot.SameMultiset(g, w) {
			return fmt.Errorf("snapshot mismatch at t=%d:\n got  %v\n want %v", probe, g, w)
		}
	}
	return nil
}

// Stress runs the plan `runs` times under randomized configurations
// (workers 1..8, shuffled strategies, batch sizes 1..16, random yield
// injection) and fails the test on the first run whose output is not
// snapshot-equivalent to the serial reference. The failure message
// carries the full configuration for replay.
func Stress(t *testing.T, plan Plan, runs int, seed int64) {
	t.Helper()
	ref, err := Reference(plan)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < runs; i++ {
		cfg := RandomConfig(rng)
		got, err := Run(plan, cfg)
		if err != nil {
			t.Fatalf("run %d [%v]: %v", i, cfg, err)
		}
		if err := Equivalent(ref, got); err != nil {
			t.Fatalf("run %d [%v]: %v", i, cfg, err)
		}
	}
}

// RandomConfig draws one execution configuration from rng.
func RandomConfig(rng *rand.Rand) Config {
	strategies := []struct {
		name string
		mk   func() sched.Factory
	}{
		{"round-robin", sched.RoundRobin},
		{"fifo", sched.FIFO},
		{"random", func() sched.Factory { return sched.Random(rng.Int63()) }},
		{"chain", sched.Chain},
		{"rate", sched.RateBased},
		{"backlog", sched.HighestBacklog},
	}
	pick := strategies[rng.Intn(len(strategies))]
	cfg := Config{
		Workers:      1 + rng.Intn(8),
		Strategy:     pick.mk(),
		StrategyName: pick.name,
		BatchSize:    1 + rng.Intn(16),
	}
	if rng.Intn(2) == 0 {
		cfg.JitterSeed = rng.Int63() | 1 // non-zero
	}
	return cfg
}

// jitterTask perturbs a task's execution: each activation runs a random
// fraction of the requested batch and yields the processor around it,
// multiplying the interleavings a stress run explores. Progress and
// completion semantics are preserved exactly.
type jitterTask struct {
	inner sched.Task
	rng   *rand.Rand
}

func (j *jitterTask) Name() string { return j.inner.Name() }

func (j *jitterTask) Backlog() int { return j.inner.Backlog() }

func (j *jitterTask) RunBatch(max int) (int, bool) {
	if j.rng.Intn(2) == 0 {
		runtime.Gosched()
	}
	if max > 1 {
		max = 1 + j.rng.Intn(max)
	}
	n, done := j.inner.RunBatch(max)
	if j.rng.Intn(2) == 0 {
		runtime.Gosched()
	}
	return n, done
}
