package pubsub

import (
	"context"
	"testing"

	"pipes/internal/temporal"
)

// frameSink records the sizes of the frames it receives.
type frameSink struct {
	sizes []int
	elems []temporal.Element
}

func (s *frameSink) Name() string { return "frames" }
func (s *frameSink) Done(int)     {}
func (s *frameSink) ProcessBatch(b temporal.Batch, _ int) {
	s.sizes = append(s.sizes, len(b))
	s.elems = append(s.elems, b...)
}

// A boundary fed one element at a time is a re-framing point: the
// one-element frames coalesce into the buffer-owned tail chunk and leave
// as frames of up to FrameCap, in order.
func TestBufferReframesOneElementFrames(t *testing.T) {
	const n = 2*FrameCap + 10
	src := NewSliceSource("s", batchElems(n))
	buf := NewBuffer("q")
	sink := &frameSink{}
	if err := src.Subscribe(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := buf.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	Drive(src)
	if got := buf.Len(); got != n {
		t.Fatalf("buffer holds %d work units, want %d", got, n)
	}
	if got := buf.Drain(0); got != n {
		t.Fatalf("Drain(0) = %d, want %d", got, n)
	}
	want := []int{FrameCap, FrameCap, 10}
	if len(sink.sizes) != len(want) {
		t.Fatalf("drained frames of %v elements, want %v", sink.sizes, want)
	}
	for i := range want {
		if sink.sizes[i] != want[i] {
			t.Fatalf("drained frames of %v elements, want %v", sink.sizes, want)
		}
	}
	for i, e := range sink.elems {
		if e.Value != i {
			t.Fatalf("element %d out of order: %v", i, e)
		}
	}
}

// Drain(max) is exact: a chunk larger than what is left of the quantum is
// split, the remainder stays queued (and open for appends), and a control
// still cuts the frames around it.
func TestDrainSplitsChunkAtQuantum(t *testing.T) {
	elems := batchElems(12)
	src := NewSliceSource("s", elems)
	buf := NewBuffer("q")
	sink := &ctlCollector{}
	if err := src.Subscribe(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := buf.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	src.EmitBatch(8) // one chunk of 8
	if n := buf.Drain(3); n != 3 {
		t.Fatalf("Drain(3) = %d, want 3", n)
	}
	src.EmitBatch(2) // appended behind the half-drained tail chunk
	src.TransferControl(Barrier{ID: 1})
	src.EmitBatch(2) // post-barrier: its own chunk
	if got := buf.Len(); got != 5+2+1+2 {
		t.Fatalf("buffer holds %d work units, want 10", got)
	}
	if n := buf.Drain(0); n != 10 {
		t.Fatalf("Drain(0) = %d, want 10", n)
	}
	var want []any
	for _, e := range elems[:10] {
		want = append(want, e)
	}
	want = append(want, Barrier{ID: 1}, elems[10], elems[11])
	if len(sink.order) != len(want) {
		t.Fatalf("sink saw %v, want %v", sink.order, want)
	}
	for i := range want {
		if sink.order[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, sink.order[i], want[i])
		}
	}
}

// Run publishes one element waited for plus what is already queued behind
// it, up to FrameCap, as one frame: FrameCap+6 queued elements on a closed
// channel leave as frames of FrameCap and 6, in order, then done.
func TestChanSourceRunFramesWhatIsQueued(t *testing.T) {
	const n = FrameCap + 6
	ch := make(chan temporal.Element, n)
	for _, e := range batchElems(n) {
		ch <- e
	}
	close(ch)
	src := NewChanSource("live", ch)
	sink := &frameSink{}
	if err := src.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !src.IsDone() {
		t.Fatal("closed channel did not signal done")
	}
	if len(sink.sizes) != 2 || sink.sizes[0] != FrameCap || sink.sizes[1] != 6 {
		t.Fatalf("published frames of %v elements, want [%d 6]", sink.sizes, FrameCap)
	}
	for i, e := range sink.elems {
		if e.Value != i {
			t.Fatalf("element %d out of order: %v", i, e)
		}
	}
}

// doneOnly has neither frame nor element method.
type doneOnly struct{}

func (doneOnly) Name() string { return "done-only" }
func (doneOnly) Done(int)     {}

// The per-element API is an edge adapter: a sink with only Process is
// wrapped once at Subscribe and sees every element of every frame; a sink
// with neither method is rejected; the original sink stays the
// subscription's identity.
func TestSubscribeAdaptsElementSinks(t *testing.T) {
	src := NewSliceSource("s", batchElems(10))
	user := &ctlCollector{} // Process only
	if err := src.Subscribe(user, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe(doneOnly{}, 0); err == nil {
		t.Fatal("a sink with neither ProcessBatch nor Process was accepted")
	}
	if subs := src.Subscriptions(); len(subs) != 1 || subs[0].Sink != Sink(user) {
		t.Fatalf("subscriptions = %v, want the user sink itself", subs)
	}
	DriveBatched(src, 4)
	if len(user.order) != 10 || !user.done {
		t.Fatalf("element sink saw %d elements (done=%v), want 10 and done", len(user.order), user.done)
	}
	if err := src.Unsubscribe(user, 0); err != nil {
		t.Fatalf("unsubscribe by the original identity: %v", err)
	}
}

// Transfer(e) publishes a one-element frame out of publisher-owned
// scratch: the per-element edge costs no allocation.
func TestTransferAllocatesNothing(t *testing.T) {
	src := NewSourceBase("s")
	if err := src.Subscribe(NewCounter("c", 1), 0); err != nil {
		t.Fatal(err)
	}
	e := temporal.At(1, 1)
	if allocs := testing.AllocsPerRun(100, func() { src.Transfer(e) }); allocs != 0 {
		t.Fatalf("Transfer allocates %v times per element, want 0", allocs)
	}
}
