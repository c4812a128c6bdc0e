package ops

import (
	"bytes"
	"sync"
	"testing"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// ctlSink records data elements and controls in arrival order. Its lock
// lets publishers on several goroutines feed it.
type ctlSink struct {
	mu    sync.Mutex
	order []any // temporal.Element or pubsub.Control
	dones int
}

func (s *ctlSink) Name() string { return "ctl-sink" }

func (s *ctlSink) Process(e temporal.Element, _ int) {
	s.mu.Lock()
	s.order = append(s.order, e)
	s.mu.Unlock()
}

func (s *ctlSink) Done(int) {
	s.mu.Lock()
	s.dones++
	s.mu.Unlock()
}

func (s *ctlSink) HandleControl(c pubsub.Control, _ int) {
	s.mu.Lock()
	s.order = append(s.order, c)
	s.mu.Unlock()
}

// check compares what the sink recorded with want.
func (s *ctlSink) check(t *testing.T, want ...any) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) != len(want) {
		t.Fatalf("sink saw %v, want %v", s.order, want)
	}
	for i := range want {
		if s.order[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, s.order[i], want[i])
		}
	}
}

// wireUp subscribes op to one source per input and the sink to op.
func wireUp(t *testing.T, op pubsub.Pipe, inputs int) ([]*pubsub.SourceBase, *ctlSink) {
	t.Helper()
	srcs := make([]*pubsub.SourceBase, inputs)
	for i := range srcs {
		src := pubsub.NewSourceBase("src")
		srcs[i] = &src
		if err := srcs[i].Subscribe(op, i); err != nil {
			t.Fatal(err)
		}
	}
	sink := &ctlSink{}
	if err := op.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	return srcs, sink
}

// rounds records the barrier IDs an operator's hooks saw.
type rounds struct {
	mu          sync.Mutex
	saves, acks []uint64
}

func (r *rounds) hook(op interface {
	SetBarrierHooks(save, ack func(pubsub.Barrier))
}) {
	op.SetBarrierHooks(
		func(b pubsub.Barrier) { r.mu.Lock(); r.saves = append(r.saves, b.ID); r.mu.Unlock() },
		func(b pubsub.Barrier) { r.mu.Lock(); r.acks = append(r.acks, b.ID); r.mu.Unlock() },
	)
}

// once checks that the hooks saw each of ids exactly once, in order.
func (r *rounds) once(t *testing.T, ids ...uint64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, got := range map[string][]uint64{"save": r.saves, "ack": r.acks} {
		if len(got) != len(ids) {
			t.Fatalf("%s hook ran for %v, want exactly once for each of %v", name, got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("%s hook ran for %v, want exactly once for each of %v", name, got, ids)
			}
		}
	}
}

// heldArrivals returns the arrivals the core holds past its inputs'
// barriers.
func heldArrivals(c *ordered) int {
	c.ProcMu.Lock()
	defer c.ProcMu.Unlock()
	n := 0
	for i := range c.in {
		if c.in[i].held >= 0 {
			n += c.in[i].Len() - c.in[i].held
		}
	}
	return n
}

// At a two-input operator the first barrier holds its input: what the
// input delivers before the barrier arrives on the other input is queued
// but not applied, and is applied after the (single, deduplicated)
// barrier is forwarded. An arrival the other input queued before its
// barrier is state, so it too leaves after the barrier.
func TestBarrierAlignmentAtTwoInputOperator(t *testing.T) {
	u := NewUnion("union", 2)
	srcs, sink := wireUp(t, u, 2)
	left, right := srcs[0], srcs[1]
	var r rounds
	r.hook(u)

	e10, e20, e30, e15 := el(1, 10, 11), el(2, 20, 21), el(3, 30, 31), el(4, 15, 16)
	left.Transfer(e10)
	left.TransferControl(pubsub.Barrier{ID: 7}) // input 0 now held
	left.Transfer(e20)                          // held: post-barrier on a held input
	left.Transfer(e30)                          // held
	if got := heldArrivals(&u.ordered); got != 2 {
		t.Fatalf("held %d arrivals during alignment, want 2", got)
	}
	right.Transfer(e15)                          // open input: applies what sorts first
	right.TransferControl(pubsub.Barrier{ID: 7}) // aligns: save, forward, release, ack
	sink.check(t, e10, pubsub.Barrier{ID: 7}, e15)
	r.once(t, 7)
	if got := heldArrivals(&u.ordered); got != 0 {
		t.Errorf("%d arrivals still held after alignment", got)
	}
	right.SignalDone()
	left.SignalDone()
	sink.check(t, e10, pubsub.Barrier{ID: 7}, e15, e20, e30)
}

// An input that signals done counts as aligned: the pending barrier must
// complete instead of stalling forever.
func TestBarrierAlignmentCompletesOnInputDone(t *testing.T) {
	ident := func(v any) any { return v }
	j := NewEquiJoin("join", ident, ident, nil)
	srcs, sink := wireUp(t, j, 2)
	left, right := srcs[0], srcs[1]
	var r rounds
	r.hook(j)

	left.TransferControl(pubsub.Barrier{ID: 3}) // holds input 0
	right.SignalDone()                          // input 1 will never deliver the barrier
	r.once(t, 3)
	// A barrier arriving when every other input is done must also pass
	// straight through (closed inputs count as aligned immediately).
	left.TransferControl(pubsub.Barrier{ID: 4})
	r.once(t, 3, 4)
	sink.check(t, pubsub.Barrier{ID: 3}, pubsub.Barrier{ID: 4})
}

// End-of-stream on a held input must not overtake the arrivals held
// before it: the operator would otherwise treat the input as closed
// (watermark +inf) and apply the other input's arrivals ahead of the
// barrier, past the held input's.
func TestDoneOnBlockedInputFollowsParkedFrames(t *testing.T) {
	u := NewUnion("union", 2)
	srcs, sink := wireUp(t, u, 2)
	left, right := srcs[0], srcs[1]

	e10, e5 := el(1, 10, 11), el(2, 5, 6)
	left.TransferControl(pubsub.Barrier{ID: 1}) // input 0 now held
	left.Transfer(e10)                          // held
	left.SignalDone()                           // held behind it
	if u.InputDone(0) {
		t.Fatal("done reached the operator ahead of the input's held arrival")
	}
	right.Transfer(e5) // pre-barrier: waits for input 0, which is open
	sink.check(t)
	right.TransferControl(pubsub.Barrier{ID: 1}) // aligns: releases the arrival, then done
	if !u.InputDone(0) {
		t.Fatal("held done was never applied")
	}
	sink.check(t, pubsub.Barrier{ID: 1}, e5)
	right.SignalDone()
	sink.check(t, pubsub.Barrier{ID: 1}, e5, e10)
	if sink.dones != 1 {
		t.Fatalf("done reached the sink %d times, want once", sink.dones)
	}
}

// What a held input delivers during alignment is queued in the
// operator, so the operator's memory report counts it.
func TestHeldArrivalsCountInMemoryUsage(t *testing.T) {
	ident := func(v any) any { return v }
	j := NewEquiJoin("join", ident, ident, nil)
	srcs, _ := wireUp(t, j, 2)
	left := srcs[0]

	left.TransferControl(pubsub.Barrier{ID: 1}) // input 0 now held
	before := j.MemoryUsage()
	left.TransferBatch(temporal.Batch{el(1, 1, 9), el(2, 2, 9), el(3, 3, 9)})
	if got, want := j.MemoryUsage()-before, 3*64; got != want {
		t.Fatalf("three held arrivals grew the memory report by %d bytes, want %d", got, want)
	}
}

// A capture taken at alignment is the state before the barrier: the
// arrivals a held input queued after its barrier are not in it, so it
// encodes the same bytes whether or not there are any. The operator is
// driven directly, as its publishers would.
func TestAlignedCaptureIgnoresHeldArrivals(t *testing.T) {
	ident := func(v any) any { return v }
	capture := func(post bool) []byte {
		j := NewEquiJoin("join", ident, ident, nil)
		if err := j.Subscribe(&ctlSink{}, 0); err != nil {
			t.Fatal(err)
		}
		var snap []byte
		j.SetBarrierHooks(func(pubsub.Barrier) { snap = snapshotBytes(t, j) }, nil)
		j.ProcessBatch(temporal.Batch{el(1, 1, 9), el(2, 2, 9), el(3, 4, 9)}, 0)
		j.ProcessBatch(temporal.Batch{el(2, 3, 9)}, 1)
		j.HandleControl(pubsub.Barrier{ID: 1}, 0) // input 0 now held
		if post {
			j.ProcessBatch(temporal.Batch{el(1, 5, 9), el(3, 6, 9)}, 0)
		}
		j.ProcessBatch(temporal.Batch{el(3, 5, 9)}, 1) // pre-barrier on input 1
		j.HandleControl(pubsub.Barrier{ID: 1}, 1)      // aligns
		if snap == nil {
			t.Fatal("the barrier never aligned")
		}
		return snap
	}
	without, with := capture(false), capture(true)
	if !bytes.Equal(without, with) {
		t.Fatalf("held arrivals changed the aligned capture:\nwithout %x\nwith    %x", without, with)
	}
}

// Two publishers feed a union on goroutines of their own, each
// injecting every round's barrier after a frame and, as the coordinator
// does, the next round's only once the last one was acked. Every round
// is saved and acked once, every arrival leaves exactly once in Start
// order, and none published after a round's barrier on its input leaves
// before that barrier.
func TestBarrierAlignmentUnderConcurrentPublishers(t *testing.T) {
	const roundsN, frame = 20, 5
	u := NewUnion("union", 2)
	srcs, sink := wireUp(t, u, 2)
	var r rounds
	acked := make([]chan struct{}, roundsN+1)
	for i := range acked {
		acked[i] = make(chan struct{})
	}
	u.SetBarrierHooks(
		func(b pubsub.Barrier) { r.mu.Lock(); r.saves = append(r.saves, b.ID); r.mu.Unlock() },
		func(b pubsub.Barrier) {
			r.mu.Lock()
			r.acks = append(r.acks, b.ID)
			r.mu.Unlock()
			close(acked[b.ID])
		})
	// after[v] is the round whose barrier its input published before v.
	type origin struct{ input, seq int }
	after := map[origin]uint64{}
	for input := range 2 {
		for k := 0; k <= roundsN; k++ {
			for s := range frame {
				after[origin{input, k*frame + s}] = uint64(k)
			}
		}
	}
	var wg sync.WaitGroup
	for input, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k <= roundsN; k++ {
				if k > 1 {
					<-acked[k-1]
				}
				if k > 0 {
					src.TransferControl(pubsub.Barrier{ID: uint64(k)})
				}
				b := make(temporal.Batch, frame)
				for s := range b {
					seq := k*frame + s
					b[s] = el(origin{input, seq}, temporal.Time(2*seq+input), temporal.Time(2*seq+input+1))
				}
				src.TransferBatch(b)
			}
			src.SignalDone()
		}()
	}
	wg.Wait()

	ids := make([]uint64, roundsN)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	r.once(t, ids...)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var passed uint64
	var last temporal.Time
	seen := 0
	for _, x := range sink.order {
		switch x := x.(type) {
		case pubsub.Barrier:
			if x.ID != passed+1 {
				t.Fatalf("barrier %d after barrier %d", x.ID, passed)
			}
			passed = x.ID
		case temporal.Element:
			if x.Start < last {
				t.Fatalf("%v left after Start %d", x, last)
			}
			last = x.Start
			if k := after[x.Value.(origin)]; k > passed {
				t.Fatalf("%v, published after barrier %d, left after barrier %d only", x.Value, k, passed)
			}
			seen++
		}
	}
	if seen != len(after) || passed != roundsN || sink.dones != 1 {
		t.Fatalf("%d of %d arrivals, %d of %d barriers and %d dones left", seen, len(after), passed, roundsN, sink.dones)
	}
}

// Shedding during alignment drops a held input's oldest arrivals, the
// pre-barrier ones first, and the barrier's position in the queue moves
// with them: no post-barrier arrival is applied before the barrier, and
// the aligned capture is the one taken with no post-barrier arrivals
// queued, whether the shed stops short of the barrier or runs past it.
func TestShedDuringAlignmentKeepsTheBarrier(t *testing.T) {
	ident := func(v any) any { return v }
	for _, shed := range []int{1, 3} {
		capture := func(post bool) ([]byte, *ctlSink) {
			j := NewEquiJoin("join", ident, ident, nil)
			sink := &ctlSink{}
			if err := j.Subscribe(sink, 0); err != nil {
				t.Fatal(err)
			}
			var snap []byte
			j.SetBarrierHooks(func(pubsub.Barrier) { snap = snapshotBytes(t, j) }, nil)
			j.ProcessBatch(temporal.Batch{el(1, 1, 9), el(2, 2, 9)}, 0)
			j.HandleControl(pubsub.Barrier{ID: 1}, 0) // input 0 now held
			if post {
				j.ProcessBatch(temporal.Batch{el(3, 5, 9), el(4, 6, 9)}, 0)
			}
			j.Shed(shed)
			// Pre-barrier on input 1; it would match the post-barrier 3.
			j.ProcessBatch(temporal.Batch{el(3, 4, 9)}, 1)
			want := 0 // of the two post-barrier arrivals, the ones the shed left
			if post {
				want = min(2, 4-shed)
			}
			if got := heldArrivals(&j.ordered); got != want {
				t.Fatalf("shed %d: %d arrivals held past the barrier after the shed, want %d", shed, got, want)
			}
			j.HandleControl(pubsub.Barrier{ID: 1}, 1) // aligns
			if snap == nil {
				t.Fatal("the barrier never aligned")
			}
			return snap, sink
		}
		without, _ := capture(false)
		with, sink := capture(true)
		if !bytes.Equal(without, with) {
			t.Fatalf("shed %d: post-barrier arrivals changed the aligned capture:\nwithout %x\nwith    %x", shed, without, with)
		}
		sink.mu.Lock()
		if len(sink.order) == 0 || sink.order[0] != (pubsub.Barrier{ID: 1}) {
			t.Errorf("shed %d: sink saw %v ahead of the barrier", shed, sink.order)
		}
		sink.mu.Unlock()
	}
}
