package metadata

import (
	"testing"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// ctlRecorder records data elements and controls in arrival order.
type ctlRecorder struct {
	name  string
	order []any
	done  bool
}

func (r *ctlRecorder) Name() string                          { return r.name }
func (r *ctlRecorder) Process(e temporal.Element, _ int)     { r.order = append(r.order, e.Value) }
func (r *ctlRecorder) Done(_ int)                            { r.done = true }
func (r *ctlRecorder) HandleControl(c pubsub.Control, _ int) { r.order = append(r.order, c) }

// TestMonitoredForwardsControlsInStreamOrder checks that monitoring is
// transparent to the control plane: a barrier entering a monitored pipe
// passes through the operator in stream position, with the monitor's
// counts unaffected.
func TestMonitoredForwardsControlsInStreamOrder(t *testing.T) {
	src := pubsub.NewSourceBase("src")
	f := ops.NewFilter("f", func(any) bool { return true })
	m := Monitor(f)
	rec := &ctlRecorder{name: "rec"}
	if err := src.Subscribe(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Subscribe(rec, 0); err != nil {
		t.Fatal(err)
	}

	b := pubsub.Barrier{ID: 1}
	src.Transfer(temporal.NewElement(1, 0, 10))
	src.TransferControl(b)
	src.Transfer(temporal.NewElement(2, 1, 11))

	want := []any{1, b, 2}
	if len(rec.order) != len(want) {
		t.Fatalf("recorded %v", rec.order)
	}
	for i := range want {
		if rec.order[i] != want[i] {
			t.Fatalf("position %d: got %v want %v", i, rec.order[i], want[i])
		}
	}
	if got, _ := m.Get(InputCount); got != 2 {
		t.Fatalf("controls leaked into the input count: %v", got)
	}
	if got, _ := m.Get(OutputCount); got != 2 {
		t.Fatalf("controls leaked into the output count: %v", got)
	}
}

// TestMonitoredBarrierAlignmentReplayCounted monitors a two-input operator
// and checks it still aligns: after the barrier arrives on input 0,
// further input-0 elements are held in the operator's input queue until
// input 1 delivers its barrier. A held element reaches the operator, and
// its input count, when it arrives; it is applied on release.
func TestMonitoredBarrierAlignmentReplayCounted(t *testing.T) {
	left := pubsub.NewSourceBase("left")
	right := pubsub.NewSourceBase("right")
	ident := func(v any) any { return v }
	j := ops.NewEquiJoin("j", ident, ident, nil)
	m := Monitor(j)
	rec := &ctlRecorder{name: "rec"}
	if err := left.Subscribe(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := right.Subscribe(j, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Subscribe(rec, 0); err != nil {
		t.Fatal(err)
	}

	b := pubsub.Barrier{ID: 3}
	left.Transfer(temporal.NewElement(1, 0, 10)) // no match yet
	left.TransferControl(b)                      // blocks input 0 (not aligned)
	left.Transfer(temporal.NewElement(1, 1, 11)) // must be held by the operator
	if len(rec.order) != 0 {
		t.Fatalf("output crossed an un-aligned barrier: %v", rec.order)
	}
	if got, _ := m.Get(InputCount); got != 2 {
		t.Fatalf("held element not counted on arrival: %v", got)
	}
	right.Transfer(temporal.NewElement(1, 1, 11)) // joins with the first left element
	right.TransferControl(b)                      // aligns: barrier emitted, held element applied
	left.SignalDone()                             // lets the queued right element through

	// The join applies its inputs merged in (Start, input) order, once
	// both have an arrival queued. The right element waits in its queue
	// until input 0 is past Start 1 or done: the released left element
	// ties with it at Start 1 and goes first, so only input 0's done lets
	// it through. It then probes both left elements, so both pairs
	// surface after the barrier — consistently: the queued element is
	// part of the join state a checkpoint at this barrier captures.
	pair := ops.Pair{Left: 1, Right: 1}
	want := []any{b, pair, pair}
	if len(rec.order) != len(want) {
		t.Fatalf("recorded %v, want %v", rec.order, want)
	}
	for i := range want {
		if rec.order[i] != want[i] {
			t.Fatalf("position %d: got %v want %v", i, rec.order[i], want[i])
		}
	}
	if got, _ := m.Get(InputCount); got != 3 {
		t.Fatalf("input count: %v", got)
	}
	if got, _ := m.Get(OutputCount); got != 2 {
		t.Fatalf("output count: %v", got)
	}
}
