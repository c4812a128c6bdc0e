// Package sched implements PIPES' 3-layer scheduling framework [6]:
//
//   - Layer 1 (virtual nodes): consecutive operators connected directly via
//     publish-subscribe execute as one unit; an explicit pubsub.Buffer is
//     placed only at virtual-node boundaries. Fusing eliminates
//     inter-operator queues inside the unit (the paper's headline overhead
//     reduction; experiments E2/E3).
//   - Layer 2 (strategies): within one thread, a pluggable Strategy picks
//     the next task (a buffer to drain or a source to advance). The
//     framework is expressive enough to host the published scheduling
//     disciplines — round-robin, FIFO-like fixed priority, random, Chain
//     [4] (memory minimisation), rate-based [9] (output-rate
//     maximisation), and highest-backlog — making it the algorithmic
//     testbed the paper demonstrates (experiment E4).
//   - Layer 3 (threads): tasks are partitioned across worker goroutines,
//     each running its own layer-2 strategy. One worker reproduces
//     single-threaded engines; one task per worker reproduces
//     thread-per-operator engines; anything between is the paper's hybrid.
package sched

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry/flight"
)

// Task is one schedulable unit of work.
type Task interface {
	// Name identifies the task in stats output.
	Name() string
	// RunBatch performs up to max work units (element transfers) and
	// returns how many were performed and whether the task is finished
	// for good.
	RunBatch(max int) (n int, done bool)
	// Backlog returns the task's pending work (0 when nothing is ready
	// right now; emitters with unknown backlog report 1 until done).
	Backlog() int
}

// Profiled is implemented by tasks that report their virtual node's
// measured profile (BufferTask, EmitterTask); the Chain and rate-based
// strategies read it. A task without one counts as σ = 1, cost = 1.
type Profiled interface {
	// Profile returns the selectivity (elements out per element in) and
	// the per-element cost in nanoseconds, which is positive.
	Profile() (selectivity, costNS float64)
}

// virtualNode reads a task's profile off the flight blocks of the nodes
// the task runs: everything its publisher — the boundary buffer, or the
// emitter's source — reaches through direct subscriptions. Elements leave
// the virtual node where a node publishes them to a Buffer (the next
// virtual node) or to a terminal sink. σ is the elements leaving over the
// elements the publisher published; cost is the nodes' summed measured
// service time (OpRef.Cost, kept while a view times the node). σ is 1
// while a block is missing or nothing has been counted, cost 1 while no
// node is timed. Only the profiled strategies read it, from the owning
// worker, so a task's batches never pay for a read.
type virtualNode struct {
	pub  pubsub.Source
	seen []pubsub.Source // one read's visited nodes, reused across reads
}

// blockOf returns n's flight block, nil when it carries none.
func blockOf(n pubsub.Node) *flight.OpRef {
	if b, ok := n.(interface{ FlightRef() *flight.OpRef }); ok {
		return b.FlightRef()
	}
	return nil
}

// profile reads the virtual node's selectivity and cost.
func (v *virtualNode) profile() (sel, cost float64) {
	pub := blockOf(v.pub)
	if pub == nil {
		return 1, 1
	}
	in := pub.Elements()
	if in == 0 {
		return 1, 1
	}
	v.seen = v.seen[:0]
	out, ns, ok := v.walk(v.pub, pub)
	if !ok {
		return 1, 1
	}
	if ns <= 0 {
		ns = 1
	}
	return float64(out) / float64(in), ns
}

// walk visits what n publishes to inside the virtual node and returns the
// elements its exits published and the service time its nodes measured;
// ok is false at a node without a block, where nothing can be counted.
func (v *virtualNode) walk(n pubsub.Source, ref *flight.OpRef) (out int64, ns float64, ok bool) {
	exit := false
	for _, sub := range n.Subscriptions() {
		next, pipe := sub.Sink.(pubsub.Source)
		if _, buf := sub.Sink.(*pubsub.Buffer); buf || !pipe {
			exit = true
			continue
		}
		if slices.Contains(v.seen, next) {
			continue
		}
		v.seen = append(v.seen, next)
		nref := blockOf(next)
		if nref == nil {
			return 0, 0, false
		}
		o, c, counted := v.walk(next, nref)
		if !counted {
			return 0, 0, false
		}
		out, ns = out+o, ns+c+nref.Cost()
	}
	if exit {
		out += ref.Elements()
	}
	return out, ns, true
}

// EmitterTask drives an active source, one frame per EmitBatch call.
type EmitterTask struct {
	// emitter is the source's frame-publishing identity
	// (pubsub.FrameEmitter), resolved at construction.
	emitter pubsub.BatchEmitter
	// done and idle are atomic because Backlog is consulted lock-free by
	// other workers probing for stealable work, concurrently with
	// RunBatch. idle records that the last batch found nothing ready.
	done, idle atomic.Bool

	vn virtualNode // read by the profiled strategies only
}

// NewEmitterTask wraps an emitter.
func NewEmitterTask(e pubsub.Emitter) *EmitterTask {
	return &EmitterTask{emitter: pubsub.FrameEmitter(e), vn: virtualNode{pub: e}}
}

// Profile implements Profiled: the virtual node the source publishes
// into.
func (t *EmitterTask) Profile() (float64, float64) { return t.vn.profile() }

// Name implements Task.
func (t *EmitterTask) Name() string { return t.emitter.Name() }

// RunBatch implements Task with one EmitBatch call: a short frame is what
// the source had ready, and asking again could wait on input that has not
// arrived. Only published elements count as work, so a poll that found
// nothing neither inflates the task's stats nor keeps its worker awake.
func (t *EmitterTask) RunBatch(max int) (int, bool) {
	if t.done.Load() {
		return 0, true
	}
	n, more := t.emitter.EmitBatch(max)
	t.done.Store(!more)
	t.idle.Store(n == 0)
	return n, !more
}

// Backlog implements Task: an emitter has (potential) work until it is
// exhausted, except right after a poll that found nothing ready — then
// only its owner's sweep, when the worker next wakes, polls it again.
func (t *EmitterTask) Backlog() int {
	if t.done.Load() || t.idle.Load() {
		return 0
	}
	return 1
}

// BufferTask drains one virtual-node boundary buffer. Draining an element
// executes the entire downstream virtual node synchronously (direct
// connections), so one BufferTask represents one fused virtual node.
type BufferTask struct {
	buf *pubsub.Buffer
	// done is atomic because Backlog reads it from workers probing for
	// stealable work, concurrently with RunBatch.
	done atomic.Bool

	vn virtualNode // read by the profiled strategies only
}

// NewBufferTask wraps a boundary buffer.
func NewBufferTask(b *pubsub.Buffer) *BufferTask {
	return &BufferTask{buf: b, vn: virtualNode{pub: b}}
}

// SetReady installs fn as the buffer's ready hook (Buffer.SetReady): the
// scheduler's Add passes its worker wake-up.
func (t *BufferTask) SetReady(fn func()) { t.buf.SetReady(fn) }

// Name implements Task.
func (t *BufferTask) Name() string { return t.buf.Name() }

// Buffer returns the wrapped boundary buffer (for instrumentation that
// attaches to the buffer itself, like flight-recorder handles).
func (t *BufferTask) Buffer() *pubsub.Buffer { return t.buf }

// RunBatch implements Task.
func (t *BufferTask) RunBatch(max int) (int, bool) {
	n := t.buf.Drain(max)
	if t.buf.UpstreamDone() && t.buf.Len() == 0 {
		// Drain(0 remaining) has propagated done downstream.
		t.done.Store(true)
	}
	return n, t.done.Load()
}

// Backlog implements Task. Once the upstream is done and the buffer is
// empty, the batch that finishes the task is work too (1): any worker may
// run it, not only the owner's sweep.
func (t *BufferTask) Backlog() int {
	n := t.buf.Len()
	if n == 0 && !t.done.Load() && t.buf.UpstreamDone() {
		return 1
	}
	return n
}

// Profile implements Profiled: the virtual node the buffer drains into.
func (t *BufferTask) Profile() (float64, float64) { return t.vn.profile() }

// Boundary splices a buffer between src and (sink, input) and returns its
// task: the layer-1 primitive that ends one virtual node and starts the
// next.
func Boundary(name string, src pubsub.Source, sink pubsub.Sink, input int) (*BufferTask, error) {
	if src == nil || sink == nil {
		return nil, errors.New("sched: boundary requires source and sink")
	}
	buf := pubsub.NewBuffer(name)
	if err := src.Subscribe(buf, 0); err != nil {
		return nil, err
	}
	if err := buf.Subscribe(sink, input); err != nil {
		return nil, err
	}
	return NewBufferTask(buf), nil
}

// TaskStats is a per-task progress snapshot.
type TaskStats struct {
	Name       string
	Processed  int64
	MaxBacklog int
	Stolen     int64 // batches run by a worker that does not own the task
	Done       bool
}

// trackedTask decorates a task with an activation lock and stats. The
// activation lock (running) guarantees at most one worker executes the
// task at any moment — the single-owner rule that makes work stealing and
// idle-sweep polling race-free without any locking inside tasks.
type trackedTask struct {
	Task
	running atomic.Bool // activation lock
	done    atomic.Bool

	mu         sync.Mutex
	processed  int64
	maxBacklog int
	stolen     int64
}

// tryAcquire takes the activation lock; it fails if another worker holds
// the task.
func (t *trackedTask) tryAcquire() bool { return t.running.CompareAndSwap(false, true) }

// release returns the activation lock.
func (t *trackedTask) release() { t.running.Store(false) }

// isDone reports whether the task has finished for good.
func (t *trackedTask) isDone() bool { return t.done.Load() }

// markDone records completion exactly once and reports whether this call
// was the transition.
func (t *trackedTask) markDone() bool { return t.done.CompareAndSwap(false, true) }

// observe records one batch and returns the backlog it left.
func (t *trackedTask) observe(n int, stolen bool) int {
	b := t.Backlog()
	t.mu.Lock()
	t.processed += int64(n)
	t.maxBacklog = max(t.maxBacklog, b)
	if stolen {
		t.stolen++
	}
	t.mu.Unlock()
	return b
}

func (t *trackedTask) stats() TaskStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TaskStats{Name: t.Name(), Processed: t.processed, MaxBacklog: t.maxBacklog, Stolen: t.stolen, Done: t.done.Load()}
}
