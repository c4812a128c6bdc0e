package pubsub

import (
	"sync"
	"testing"

	"pipes/internal/temporal"
)

// passPipe is a minimal single-input operator: forwards every element.
type passPipe struct {
	PipeBase
}

func newPassPipe(name string) *passPipe {
	p := &passPipe{PipeBase: NewPipeBase(name, 1)}
	return p
}

func (p *passPipe) Process(e temporal.Element, _ int) {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	p.Transfer(e)
}

// mergePipe is a minimal two-input operator: forwards every element and
// records the order in which Process observed them.
type mergePipe struct {
	PipeBase
	mu   sync.Mutex
	seen []temporal.Element
}

func newMergePipe(name string) *mergePipe {
	return &mergePipe{PipeBase: NewPipeBase(name, 2)}
}

func (p *mergePipe) Process(e temporal.Element, _ int) {
	p.ProcMu.Lock()
	p.mu.Lock()
	p.seen = append(p.seen, e)
	p.mu.Unlock()
	p.Transfer(e)
	p.ProcMu.Unlock()
}

// ctlCollector records data elements and controls in arrival order.
type ctlCollector struct {
	mu    sync.Mutex
	order []any // temporal.Element or Control
	done  bool
}

func (c *ctlCollector) Name() string { return "ctl-collector" }

func (c *ctlCollector) Process(e temporal.Element, _ int) {
	c.mu.Lock()
	c.order = append(c.order, e)
	c.mu.Unlock()
}

func (c *ctlCollector) Done(_ int) {
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
}

func (c *ctlCollector) HandleControl(ctl Control, _ int) {
	c.mu.Lock()
	c.order = append(c.order, ctl)
	c.mu.Unlock()
}

func elem(v int, start temporal.Time) temporal.Element {
	return temporal.Element{Value: v, Interval: temporal.Interval{Start: start, End: start + 1}, Trace: nil}
}

// A barrier published between two elements must arrive at the sink in
// exactly that stream position after passing through an operator chain.
func TestBarrierKeepsStreamPositionThroughChain(t *testing.T) {
	src := NewSourceBase("src")
	p1, p2 := newPassPipe("p1"), newPassPipe("p2")
	sink := &ctlCollector{}
	if err := src.Subscribe(p1, 0); err != nil {
		t.Fatal(err)
	}
	if err := p1.Subscribe(p2, 0); err != nil {
		t.Fatal(err)
	}
	if err := p2.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}

	src.Transfer(elem(1, 10))
	src.TransferControl(Barrier{ID: 1})
	src.Transfer(elem(2, 20))
	src.SignalDone()

	want := []any{elem(1, 10), Barrier{ID: 1}, elem(2, 20)}
	if len(sink.order) != len(want) {
		t.Fatalf("got %d entries, want %d: %v", len(sink.order), len(want), sink.order)
	}
	for i := range want {
		if sink.order[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, sink.order[i], want[i])
		}
	}
	if !sink.done {
		t.Error("done not propagated")
	}
}

// Plain sinks (no HandleControl) must be skipped silently.
func TestControlSkipsPlainSinks(t *testing.T) {
	src := NewSourceBase("src")
	plain := NewCollector("plain", 1)
	if err := src.Subscribe(plain, 0); err != nil {
		t.Fatal(err)
	}
	src.TransferControl(Barrier{ID: 1}) // must not panic
	src.Transfer(elem(1, 1))
	if got := len(plain.Elements()); got != 1 {
		t.Fatalf("collector got %d elements, want 1", got)
	}
}

// At a two-input operator the first barrier must block its input: data
// published on the blocked input before the second barrier arrives is
// parked and replayed after the (single, deduplicated) barrier is
// forwarded.
func TestBarrierAlignmentAtTwoInputOperator(t *testing.T) {
	left, right := NewSourceBase("left"), NewSourceBase("right")
	m := newMergePipe("merge")
	sink := &ctlCollector{}
	if err := left.Subscribe(m, 0); err != nil {
		t.Fatal(err)
	}
	if err := right.Subscribe(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}

	var saves, acks []uint64
	m.SetBarrierHooks(
		func(b Barrier) { saves = append(saves, b.ID) },
		func(b Barrier) { acks = append(acks, b.ID) },
	)

	left.Transfer(elem(1, 10))
	left.TransferControl(Barrier{ID: 7}) // input 0 now blocked
	left.Transfer(elem(2, 20))           // parked: post-barrier on a blocked input
	left.Transfer(elem(3, 30))           // parked
	if got := m.BarrierGate().Held(); got != 2 {
		t.Fatalf("held %d elements during alignment, want 2", got)
	}
	right.Transfer(elem(4, 15))           // open input: processed immediately
	right.TransferControl(Barrier{ID: 7}) // aligns: snapshot, forward, replay, ack

	wantOrder := []any{elem(1, 10), elem(4, 15), Barrier{ID: 7}, elem(2, 20), elem(3, 30)}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.order) != len(wantOrder) {
		t.Fatalf("sink saw %v, want %v", sink.order, wantOrder)
	}
	for i := range wantOrder {
		if sink.order[i] != wantOrder[i] {
			t.Errorf("position %d: got %v, want %v", i, sink.order[i], wantOrder[i])
		}
	}
	if len(saves) != 1 || saves[0] != 7 {
		t.Errorf("save hook ran %v, want exactly once for ID 7", saves)
	}
	if len(acks) != 1 || acks[0] != 7 {
		t.Errorf("ack hook ran %v, want exactly once for ID 7", acks)
	}
	if got := m.BarrierGate().Held(); got != 0 {
		t.Errorf("%d elements still parked after alignment", got)
	}
}

// An input that signals done counts as aligned: the pending barrier must
// complete instead of stalling forever.
func TestBarrierAlignmentCompletesOnInputDone(t *testing.T) {
	left, right := NewSourceBase("left"), NewSourceBase("right")
	m := newMergePipe("merge")
	sink := &ctlCollector{}
	if err := left.Subscribe(m, 0); err != nil {
		t.Fatal(err)
	}
	if err := right.Subscribe(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}

	var acks []uint64
	m.SetBarrierHooks(nil, func(b Barrier) { acks = append(acks, b.ID) })

	left.TransferControl(Barrier{ID: 3}) // blocks input 0
	right.SignalDone()                   // input 1 will never deliver the barrier

	if len(acks) != 1 || acks[0] != 3 {
		t.Fatalf("ack hook ran %v, want exactly once for ID 3 after done-alignment", acks)
	}
	// A barrier arriving on an already-done input set must also pass
	// straight through (closed inputs count as aligned immediately).
	left.TransferControl(Barrier{ID: 4})
	if len(acks) != 2 || acks[1] != 4 {
		t.Fatalf("ack hook ran %v, want second entry for ID 4", acks)
	}
}

// Controls traverse a Buffer in FIFO position with the buffered data.
func TestBufferForwardsControlsInFIFOPosition(t *testing.T) {
	src := NewSourceBase("src")
	buf := NewBuffer("buf")
	sink := &ctlCollector{}
	if err := src.Subscribe(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := buf.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}

	src.Transfer(elem(1, 10))
	src.TransferControl(Barrier{ID: 9})
	src.Transfer(elem(2, 20))
	if sink.order != nil {
		t.Fatalf("buffer leaked entries before drain: %v", sink.order)
	}
	if n := buf.Drain(0); n != 3 {
		t.Fatalf("Drain returned %d work units, want 3 (2 data + 1 control)", n)
	}
	want := []any{elem(1, 10), Barrier{ID: 9}, elem(2, 20)}
	for i := range want {
		if sink.order[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, sink.order[i], want[i])
		}
	}
}

// Stale barriers (ID at or below the last completed round) are dropped.
func TestBarrierDeduplication(t *testing.T) {
	src := NewSourceBase("src")
	p := newPassPipe("p")
	sink := &ctlCollector{}
	if err := src.Subscribe(p, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	src.TransferControl(Barrier{ID: 5})
	src.TransferControl(Barrier{ID: 5}) // duplicate
	src.TransferControl(Barrier{ID: 4}) // stale
	if len(sink.order) != 1 {
		t.Fatalf("sink saw %d controls, want 1 (dedupe): %v", len(sink.order), sink.order)
	}
}

// End-of-stream on a blocked input must not overtake the frames parked
// before it: the operator would otherwise treat the input as closed
// (watermark +inf) and then receive its held elements late.
func TestDoneOnBlockedInputFollowsParkedFrames(t *testing.T) {
	left, right := NewSourceBase("left"), NewSourceBase("right")
	m := newMergePipe("merge")
	if err := left.Subscribe(m, 0); err != nil {
		t.Fatal(err)
	}
	if err := right.Subscribe(m, 1); err != nil {
		t.Fatal(err)
	}
	var closedAt []int // elements seen when an input closed
	m.OnInputDone = func(int) { closedAt = append(closedAt, len(m.seen)) }

	left.TransferControl(Barrier{ID: 1}) // input 0 now blocked
	left.Transfer(elem(1, 10))           // parked
	left.SignalDone()                    // parked behind it
	if m.InputDone(0) {
		t.Fatal("done reached the operator ahead of the input's parked frame")
	}
	right.TransferControl(Barrier{ID: 1}) // aligns: replays the frame, then done

	if !m.InputDone(0) {
		t.Fatal("parked done was never replayed")
	}
	if len(closedAt) != 1 || closedAt[0] != 1 {
		t.Fatalf("input closed after %v elements, want exactly once after the 1 parked element", closedAt)
	}
}
