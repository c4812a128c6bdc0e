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
