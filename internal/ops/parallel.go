package ops

import (
	"fmt"
	"hash/fnv"
	"math"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// Parallel is the partitioned-execution helper: it hash-partitions the
// elements of an `inputs`-ary stream operator across `replicas` identical
// operator instances and merges the replica outputs back into one stream,
// preserving temporal order. Each replica sits behind its own hand-off
// buffers, so a scheduler can drain the replicas on different workers and
// a stateful operator (join, group-by) scales with cores while remaining
// single-threaded internally.
//
// Layout (for inputs=2, replicas=n):
//
//	            ┌─ buf[0,0] ─┐            ┌─ buf[0,1] ─┐
//	in 0 ─ hash ┤    ...     ├ replica 0..n-1 outputs ─ merge ─ out
//	            └─ buf[n-1,0]┘            └─ buf[n-1,1]┘
//
// Correctness requires the partitioning key to agree with the operator's
// state: snapshots of the merged output equal snapshots of an unreplicated
// instance iff elements that must meet in one state structure (join
// partners, group members) map to the same replica. For an equi-join,
// partition both inputs by the join key; for a group-by, partition by the
// group key. The key function must be pure and safe for concurrent calls.
//
// The merge is the order-restoring Union: replica outputs are buffered
// until every open replica's watermark passes them, so the merged stream
// keeps the non-decreasing-Start invariant (see SEMANTICS.md).
type Parallel struct {
	name     string
	inputs   int
	replicas []pubsub.Pipe
	bufs     [][]*pubsub.Buffer // [replica][input]
	key      KeyFunc
	out      pubsub.Source // merge union, or the sole replica
}

// NewParallel builds `replicas` instances via mk (called with the replica
// index; each instance must be a fresh `inputs`-ary operator) and wires
// the partition/merge scaffolding around them. key extracts the
// partitioning key from an element value.
func NewParallel(name string, inputs, replicas int, key KeyFunc, mk func(r int) pubsub.Pipe) *Parallel {
	if inputs <= 0 {
		panic("ops: parallel arity must be positive")
	}
	if replicas <= 0 {
		panic("ops: parallel needs at least one replica")
	}
	if key == nil {
		panic("ops: parallel requires a partitioning key")
	}
	if mk == nil {
		panic("ops: parallel requires a replica constructor")
	}
	p := &Parallel{
		name:     name,
		inputs:   inputs,
		replicas: make([]pubsub.Pipe, replicas),
		bufs:     make([][]*pubsub.Buffer, replicas),
		key:      key,
	}
	var merge *Union
	if replicas > 1 {
		merge = NewUnion(name+".merge", replicas)
		p.out = merge
	}
	for r := 0; r < replicas; r++ {
		rep := mk(r)
		if rep == nil {
			panic("ops: parallel replica constructor returned nil")
		}
		p.replicas[r] = rep
		p.bufs[r] = make([]*pubsub.Buffer, inputs)
		for i := 0; i < inputs; i++ {
			b := pubsub.NewBuffer(fmt.Sprintf("%s.r%d.in%d", name, r, i))
			if err := b.Subscribe(rep, i); err != nil {
				panic(fmt.Sprintf("ops: parallel wiring: %v", err))
			}
			p.bufs[r][i] = b
		}
		if merge != nil {
			if err := rep.Subscribe(merge, r); err != nil {
				panic(fmt.Sprintf("ops: parallel wiring: %v", err))
			}
		} else {
			p.out = rep
		}
	}
	return p
}

// Name implements pubsub.Node.
func (p *Parallel) Name() string { return p.name }

// Inputs returns the operator arity.
func (p *Parallel) Inputs() int { return p.inputs }

// ProcessBatch implements pubsub.BatchSink: route every run of
// consecutive elements with the same partition to that partition's
// hand-off buffer, as a view of the borrowed frame (the buffer copies at
// enqueue and coalesces small frames, so the replicas still see frames).
// Buffer enqueueing is thread-safe, so concurrently publishing upstream
// sources need no further serialisation here.
func (p *Parallel) ProcessBatch(b temporal.Batch, input int) {
	if len(b) == 0 {
		return
	}
	start, r := 0, p.replicaOf(b[0])
	for i := 1; i < len(b); i++ {
		if next := p.replicaOf(b[i]); next != r {
			p.bufs[r][input].ProcessBatch(b[start:i], 0)
			start, r = i, next
		}
	}
	p.bufs[r][input].ProcessBatch(b[start:], 0)
}

func (p *Parallel) replicaOf(e temporal.Element) int {
	return int(hashKey(p.key(e.Value)) % uint64(len(p.replicas)))
}

// Done implements pubsub.Sink: end-of-stream on one input propagates to
// that input's buffer on every replica (each drains before forwarding).
func (p *Parallel) Done(input int) {
	if input < 0 || input >= p.inputs {
		return
	}
	for r := range p.bufs {
		p.bufs[r][input].Done(0)
	}
}

// Subscribe implements pubsub.Source by attaching downstream sinks to the
// merged output.
func (p *Parallel) Subscribe(sink pubsub.Sink, input int) error { return p.out.Subscribe(sink, input) }

// Unsubscribe implements pubsub.Source.
func (p *Parallel) Unsubscribe(sink pubsub.Sink, input int) error {
	return p.out.Unsubscribe(sink, input)
}

// Subscriptions implements pubsub.Source.
func (p *Parallel) Subscriptions() []pubsub.Subscription { return p.out.Subscriptions() }

// Buffers returns every hand-off buffer, grouped by replica (replica 0's
// input buffers first). Wrap each in a sched.BufferTask — spreading them
// across workers with AddTo is what buys the parallelism.
func (p *Parallel) Buffers() []*pubsub.Buffer {
	var out []*pubsub.Buffer
	for _, row := range p.bufs {
		out = append(out, row...)
	}
	return out
}

// Replicas returns the replica operator instances (for memory-manager
// subscription or inspection).
func (p *Parallel) Replicas() []pubsub.Pipe {
	out := make([]pubsub.Pipe, len(p.replicas))
	copy(out, p.replicas)
	return out
}

// MemoryUsage sums the replicas' reported footprints plus buffered
// hand-off elements.
func (p *Parallel) MemoryUsage() int {
	n := 0
	for _, rep := range p.replicas {
		if r, ok := rep.(interface{ MemoryUsage() int }); ok {
			n += r.MemoryUsage()
		}
	}
	for _, row := range p.bufs {
		for _, b := range row {
			n += b.Len() * 64
		}
	}
	return n
}

func (p *Parallel) String() string {
	return fmt.Sprintf("%s[parallel x%d]", p.name, len(p.replicas))
}

// hashKey maps a comparable partitioning key to a well-mixed uint64. The
// common key types hash without allocation; everything else goes through
// its printed form.
func hashKey(k any) uint64 {
	switch v := k.(type) {
	case int:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case uint32:
		return mix64(uint64(v))
	case uint:
		return mix64(uint64(v))
	case bool:
		if v {
			return mix64(1)
		}
		return mix64(0)
	case float64:
		return mix64(math.Float64bits(v))
	case string:
		h := fnv.New64a()
		h.Write([]byte(v))
		return mix64(h.Sum64())
	default:
		h := fnv.New64a()
		fmt.Fprintf(h, "%#v", k)
		return mix64(h.Sum64())
	}
}

// mix64 is the splitmix64 finaliser: spreads small integer keys across
// the whole range so `hash % replicas` balances.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
