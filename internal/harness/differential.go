// Frame-size invariance: the same plan is driven by a deterministic
// single-threaded driver at different frame sizes, and the runs must
// agree EXACTLY: identical output sequences, identical checkpoint
// snapshots (byte-for-byte codec state) at every punctuation round, and
// identical sink cut indices. A frame is by definition the run of its
// elements processed one by one (SEMANTICS.md §3.7), so frame size 1 is
// the baseline every other size is compared against, and nothing — not
// even the physical emission order of simultaneous elements — may depend
// on how a stream is cut into frames. This is a stronger oracle than
// snapshot equivalence.
//
// The driver emits sources one at a time (source 0's segment, then source
// 1's, ...) and drains every hand-off buffer to quiescence between
// frames, so the per-edge delivery sequence at every operator is a pure
// function of the schedule and identical across runs; only the frame
// grouping differs. Punctuation rounds inject a pubsub.Barrier at a
// randomized per-source element offset — the offset cuts the current
// frame (the punctuation-cut rule) — and the barrier save hooks capture
// each stateful operator's encoded snapshot for comparison.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/temporal"
)

// DiffConfig parameterises one driver run.
type DiffConfig struct {
	// FrameSize is the frame size sources publish at; 1 is the baseline,
	// <= 0 means whole-segment: each source segment between two
	// punctuations is published as a single frame.
	FrameSize int
	// Rounds is the number of punctuation rounds: barriers with IDs 1..Rounds
	// are injected at randomized per-source offsets.
	Rounds int
	// Seed drives the punctuation-offset rng; runs at every frame size
	// derive identical offsets from it.
	Seed int64
}

// RunResult is everything one run produced, in comparable form.
type RunResult struct {
	// Output is the exact element sequence received by the sink.
	Output []temporal.Element
	// Snapshots[r] maps an operator key (discovery index + name) to the
	// operator's encoded state captured when barrier r+1 aligned.
	// Operators the barrier never reaches are absent.
	Snapshots []map[string][]byte
	// Cuts[r] is the number of output elements before barrier r+1 reached
	// the sink, or -1 when it never arrived.
	Cuts []int
	// Offsets[i][r] is source i's replay offset for round r+1: the number
	// of elements it published before injecting the barrier.
	Offsets [][]int
}

// ErrDiffUnsupported marks a plan outside the crash-recovery scenario's
// reach: the barrier did not reach the sink or some stateful operator.
// Every operator forwards controls, so this is a loud failure, not a
// skip: a shape that stops propagating barriers is a bug.
var ErrDiffUnsupported = errors.New("harness: plan does not propagate barriers end-to-end")

// RunFrames executes the plan at cfg.FrameSize.
func RunFrames(plan Plan, cfg DiffConfig) (RunResult, error) {
	return runFrames(plan, cfg, nil)
}

// DiffRuns compares two runs for exact agreement and reports the first
// divergence.
func DiffRuns(want, got RunResult) error {
	if len(want.Output) != len(got.Output) {
		return fmt.Errorf("output length: want %d, got %d", len(want.Output), len(got.Output))
	}
	for i := range want.Output {
		if !sameElement(want.Output[i], got.Output[i]) {
			return fmt.Errorf("output[%d]: want %v, got %v", i, want.Output[i], got.Output[i])
		}
	}
	if len(want.Cuts) != len(got.Cuts) {
		return fmt.Errorf("rounds: want %d cuts, got %d", len(want.Cuts), len(got.Cuts))
	}
	for r := range want.Cuts {
		if want.Cuts[r] != got.Cuts[r] {
			return fmt.Errorf("round %d: sink cut want %d, got %d", r+1, want.Cuts[r], got.Cuts[r])
		}
	}
	for r := range want.Snapshots {
		w, g := want.Snapshots[r], got.Snapshots[r]
		for key := range g {
			if _, ok := w[key]; !ok {
				return fmt.Errorf("round %d: unexpected snapshot of %s", r+1, key)
			}
		}
		for key, wb := range w {
			gb, ok := g[key]
			if !ok {
				return fmt.Errorf("round %d: missing snapshot of %s", r+1, key)
			}
			if !bytes.Equal(wb, gb) {
				return fmt.Errorf("round %d: snapshot of %s differs (%d vs %d bytes)", r+1, key, len(wb), len(gb))
			}
		}
	}
	return nil
}

// sameElement compares logical element content; the telemetry trace slot
// is transport metadata and takes no part in run equality.
func sameElement(a, b temporal.Element) bool {
	return a.Interval == b.Interval && reflect.DeepEqual(a.Value, b.Value)
}

// RunCrashRecovery runs the full crash-mid-frame scenario: an
// uninterrupted run for reference, a run abandoned mid-frame a
// few elements after round crashRound completed, then a recovery run —
// fresh graph, operator state loaded from the round's snapshots, sources
// replayed from the recorded offsets. The pre-crash output truncated at
// the round's sink cut, concatenated with the recovered output, must be
// snapshot-equivalent to the uninterrupted run. Returns ErrDiffUnsupported
// when the plan cannot align barriers end-to-end.
func RunCrashRecovery(plan Plan, cfg DiffConfig, crashRound int) error {
	if crashRound < 1 || crashRound > cfg.Rounds {
		return fmt.Errorf("harness: crash round %d outside 1..%d", crashRound, cfg.Rounds)
	}
	full, err := runFrames(plan, cfg, nil)
	if err != nil {
		return fmt.Errorf("uninterrupted run: %w", err)
	}
	cut := full.Cuts[crashRound-1]
	if cut < 0 {
		return ErrDiffUnsupported
	}

	// Crash a prime-ish number of elements past the round so the stop point
	// lands mid-frame whenever the frame size exceeds one.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995))
	frame := cfg.FrameSize
	if frame < 2 {
		frame = 2
	}
	extra := make([]int, len(plan.Inputs))
	for i := range extra {
		extra[i] = 1 + rng.Intn(2*frame-1)
	}
	crashed, err := runFrames(plan, cfg, &crashSpec{round: crashRound, extra: extra})
	if err != nil {
		return fmt.Errorf("crashed run: %w", err)
	}
	snaps := crashed.Snapshots[crashRound-1]

	// Recovery: rebuild, load state, replay each source from its offset.
	replay := make([][]temporal.Element, len(plan.Inputs))
	for i, in := range plan.Inputs {
		replay[i] = in[crashed.Offsets[i][crashRound-1]:]
	}
	recovered, err := recoverFrames(plan, cfg, replay, snaps)
	if err != nil {
		return err
	}

	assembled := append(append([]temporal.Element(nil), crashed.Output[:cut]...), recovered...)
	if err := Equivalent(full.Output, assembled); err != nil {
		return fmt.Errorf("recovered output diverges: %w", err)
	}
	return nil
}

// crashSpec stops a run mid-frame: after round `round` completes, each
// source emits extra[i] more elements (cut into partial frames) and the
// graph is abandoned without end-of-stream.
type crashSpec struct {
	round int
	extra []int
}

// diffSink is the driver's terminal sink: it records the exact output
// sequence and, per barrier, the cut index. The driver is single-threaded,
// so no locking is needed.
type diffSink struct {
	elems []temporal.Element
	cuts  map[uint64]int
}

func (s *diffSink) Name() string                         { return "diff-sink" }
func (s *diffSink) ProcessBatch(b temporal.Batch, _ int) { s.elems = append(s.elems, b...) }
func (s *diffSink) Done(_ int)                           {}
func (s *diffSink) KeepsValues()                         {} // the sequence is compared after the run
func (s *diffSink) HandleControl(c pubsub.Control, _ int) {
	if b, ok := c.(pubsub.Barrier); ok {
		if _, dup := s.cuts[b.ID]; !dup {
			s.cuts[b.ID] = len(s.elems)
		}
	}
}

// barrierHooked and ft.StateSaver are the capability pair a
// snapshot-capturable operator exposes (pubsub.PipeBase + ops state
// contract); ft.StateLoader is the recovery half.
type barrierHooked interface {
	SetBarrierHooks(save, ack func(pubsub.Barrier))
}

// saverRef is one snapshot-capturable operator found by graph discovery.
type saverRef struct {
	key    string
	hooked barrierHooked
	saver  ft.StateSaver
}

// discoverSavers walks the graph breadth-first from the sources through
// Subscriptions and returns every operator that both aligns barriers and
// saves state, in deterministic discovery order. The order is a pure function of the
// Build wiring, so a rebuilt graph yields the same keys.
func discoverSavers(roots []pubsub.Source) []saverRef {
	var refs []saverRef
	queue := make([]any, 0, len(roots))
	for _, s := range roots {
		queue = append(queue, s)
	}
	seen := map[any]bool{}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		if hooked, ok := n.(barrierHooked); ok {
			if sv, ok := n.(ft.StateSaver); ok {
				name := "?"
				if node, ok := n.(interface{ Name() string }); ok {
					name = node.Name()
				}
				refs = append(refs, saverRef{
					key:    fmt.Sprintf("%03d:%s", len(refs), name),
					hooked: hooked,
					saver:  sv,
				})
			}
		}
		if src, ok := n.(pubsub.Source); ok {
			for _, sub := range src.Subscriptions() {
				queue = append(queue, sub.Sink)
			}
		}
	}
	return refs
}

// punctOffsets derives the per-source punctuation offsets from the seed:
// Rounds draws in [0, len(input)], sorted so successive rounds cut at
// non-decreasing stream positions. Runs at every frame size call this with
// the same config and therefore agree on every cut.
func punctOffsets(plan Plan, cfg DiffConfig) [][]int {
	rng := rand.New(rand.NewSource(cfg.Seed))
	offs := make([][]int, len(plan.Inputs))
	for i, in := range plan.Inputs {
		offs[i] = make([]int, cfg.Rounds)
		for r := range offs[i] {
			offs[i][r] = rng.Intn(len(in) + 1)
		}
		sort.Ints(offs[i])
	}
	return offs
}

const drainMax = 1 << 20

// drainAll pumps every hand-off task until a full pass makes no progress.
func drainAll(tasks []sched.Task) {
	for {
		progress := false
		for _, t := range tasks {
			if n, _ := t.RunBatch(drainMax); n > 0 {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// frameDriver drives one run's sources deterministically.
type frameDriver struct {
	srcs  []*pubsub.SliceSource
	pos   []int
	tasks []sched.Task
	frame int // <= 0: whole-segment
}

// emitTo advances source i to absolute offset target, in frames of at
// most the configured size, draining the graph to quiescence after every
// publication.
func (d *frameDriver) emitTo(i, target int) {
	for d.pos[i] < target {
		n := target - d.pos[i]
		if d.frame > 0 && n > d.frame {
			n = d.frame
		}
		k, _ := d.srcs[i].EmitBatch(n)
		d.pos[i] += k
		drainAll(d.tasks)
	}
}

// finish exhausts every source, signals end-of-stream and drains until
// every task completes.
func (d *frameDriver) finish(inputs [][]temporal.Element) error {
	for i := range d.srcs {
		d.emitTo(i, len(inputs[i]))
		// One more emit observes exhaustion and signals done.
		d.srcs[i].EmitBatch(d.frame)
		drainAll(d.tasks)
	}
	// Done propagation may need extra passes (a buffer forwards done only
	// once its own upstream finished); a pass flipping nothing means wedged.
	for {
		allDone, progress := true, false
		for _, t := range d.tasks {
			n, done := t.RunBatch(drainMax)
			if n > 0 {
				progress = true
			}
			if !done {
				allDone = false
			}
		}
		if allDone {
			return nil
		}
		if !progress {
			return fmt.Errorf("harness: differential driver wedged: tasks never finished")
		}
	}
}

// runFrames executes one run of the plan at cfg.FrameSize.
func runFrames(plan Plan, cfg DiffConfig, crash *crashSpec) (RunResult, error) {
	if plan.Build == nil {
		return RunResult{}, fmt.Errorf("harness: plan %q has no Build", plan.Name)
	}
	srcs := make([]*pubsub.SliceSource, len(plan.Inputs))
	sources := make([]pubsub.Source, len(plan.Inputs))
	for i, in := range plan.Inputs {
		srcs[i] = pubsub.NewSliceSource(fmt.Sprintf("in%d", i), in)
		sources[i] = srcs[i]
	}
	out, extra, err := plan.Build(sources)
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: plan %q: %w", plan.Name, err)
	}
	sink := &diffSink{cuts: map[uint64]int{}}
	if err := out.Subscribe(sink, 0); err != nil {
		return RunResult{}, fmt.Errorf("harness: plan %q: %w", plan.Name, err)
	}

	res := RunResult{
		Snapshots: make([]map[string][]byte, cfg.Rounds),
		Cuts:      make([]int, cfg.Rounds),
		Offsets:   punctOffsets(plan, cfg),
	}
	for r := range res.Snapshots {
		res.Snapshots[r] = map[string][]byte{}
	}
	for _, ref := range discoverSavers(sources) {
		ref := ref
		ref.hooked.SetBarrierHooks(func(b pubsub.Barrier) {
			state, err := ft.EncodeState(ref.saver)
			if err != nil {
				panic(fmt.Sprintf("harness: snapshot of %s: %v", ref.key, err))
			}
			res.Snapshots[b.ID-1][ref.key] = state
		}, nil)
	}

	d := &frameDriver{srcs: srcs, pos: make([]int, len(srcs)), tasks: extra, frame: cfg.FrameSize}
	for r := 0; r < cfg.Rounds; r++ {
		for i := range srcs {
			d.emitTo(i, res.Offsets[i][r])
			srcs[i].TransferControl(pubsub.Barrier{ID: uint64(r + 1)})
			drainAll(d.tasks)
		}
		if crash != nil && crash.round == r+1 {
			// Keep running a few elements past the checkpoint, stopping
			// mid-frame, then abandon the graph — the volatile state
			// (operator contents, partially consumed frames) is lost.
			for i := range srcs {
				stop := res.Offsets[i][r] + crash.extra[i]
				if max := len(plan.Inputs[i]); stop > max {
					stop = max
				}
				d.emitTo(i, stop)
			}
			return finishResult(res, sink), nil
		}
	}
	for i := range srcs {
		d.emitTo(i, len(plan.Inputs[i]))
	}
	if err := d.finish(plan.Inputs); err != nil {
		return RunResult{}, err
	}
	return finishResult(res, sink), nil
}

func finishResult(res RunResult, sink *diffSink) RunResult {
	res.Output = sink.elems
	for r := range res.Cuts {
		if cut, ok := sink.cuts[uint64(r+1)]; ok {
			res.Cuts[r] = cut
		} else {
			res.Cuts[r] = -1
		}
	}
	return res
}

// recoverFrames rebuilds the plan on replay inputs, loads the snapshot
// into every discovered operator and drives the graph to completion.
func recoverFrames(plan Plan, cfg DiffConfig, replay [][]temporal.Element, snaps map[string][]byte) ([]temporal.Element, error) {
	srcs := make([]*pubsub.SliceSource, len(replay))
	sources := make([]pubsub.Source, len(replay))
	for i, in := range replay {
		srcs[i] = pubsub.NewSliceSource(fmt.Sprintf("in%d", i), in)
		sources[i] = srcs[i]
	}
	out, extra, err := plan.Build(sources)
	if err != nil {
		return nil, fmt.Errorf("harness: plan %q rebuild: %w", plan.Name, err)
	}
	sink := &diffSink{cuts: map[uint64]int{}}
	if err := out.Subscribe(sink, 0); err != nil {
		return nil, fmt.Errorf("harness: plan %q rebuild: %w", plan.Name, err)
	}
	for _, ref := range discoverSavers(sources) {
		state, ok := snaps[ref.key]
		if !ok {
			// The barrier never reached this operator pre-crash; its round-R
			// state is unknown and recovery cannot be exact.
			return nil, ErrDiffUnsupported
		}
		loader, ok := ref.saver.(ft.StateLoader)
		if !ok {
			return nil, fmt.Errorf("harness: %s saves state but cannot load it", ref.key)
		}
		if err := loader.LoadState(state); err != nil {
			return nil, fmt.Errorf("harness: restoring %s: %w", ref.key, err)
		}
	}
	d := &frameDriver{srcs: srcs, pos: make([]int, len(srcs)), tasks: extra, frame: cfg.FrameSize}
	for i := range srcs {
		d.emitTo(i, len(replay[i]))
	}
	if err := d.finish(replay); err != nil {
		return nil, err
	}
	return sink.elems, nil
}
