package ops

import (
	"bytes"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// rowReader borrows the rows it is handed: it reads each one in the call
// and keeps only how many it read.
type rowReader struct{ n int }

func (r *rowReader) Name() string { return "reader" }
func (r *rowReader) Done(int)     {}

func (r *rowReader) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		r.n += len(e.Value.(map[string]any))
	}
}

// seqGroup returns a γ over tup values that lends its rows, each
// numbered by the span that filled it, so a refilled row never encodes
// as it did.
func seqGroup() *GroupBy {
	seq := 0
	return NewGroupInto("g", tupKey, aggregate.NewCount, func(k any, agg aggregate.Aggregate, row map[string]any) bool {
		seq++
		row["k"], row["n"], row["seq"] = k, agg.Value(), seq
		return true
	})
}

// γ's pending rows are checkpoint state. A capture taken while spans
// wait in the core must encode them as they were at the cut, although
// the frames processed before its encode release them to a borrower,
// get them back and fill new spans.
func TestLentGroupRowsEncodeTheirCut(t *testing.T) {
	g := seqGroup()
	reader := &rowReader{}
	if err := g.Subscribe(reader, 0); err != nil {
		t.Fatal(err)
	}
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			g.ProcessBatch(temporal.Batch{el(tup(1+i%4, i), temporal.Time(i), temporal.Time(i+3))}, 0)
		}
	}
	// Group 0's open span starts at 0 and holds every later span back.
	g.ProcessBatch(temporal.Batch{el(tup(0, "hold"), 0, 200)}, 0)
	feed(1, 100)
	want, err := ft.EncodeState(g)
	if err != nil {
		t.Fatal(err)
	}
	pending := g.buffered()
	if pending < pubsub.FrameCap {
		t.Fatalf("%d spans pending at the cut, want at least a frame's worth", pending)
	}
	fn, err := g.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// Group 0's element expires: every pending span is released to the
	// reader, and the rows it returns could fill the spans that follow.
	released := reader.n
	feed(200, 400)
	if reader.n == released {
		t.Fatal("the frames after the cut released nothing")
	}
	got, err := fn(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("the capture encoded %d bytes, the cut's state is %d: they differ from byte %d on", len(got), len(want), at)
	}
	// The image is back: rows are reused again.
	feed(400, 500)
	if g.free.bytes() == 0 {
		t.Fatal("no row came back to the free list after the encode")
	}
}

// A lending node's free rows count in its MemoryUsage and stay within
// their bound: a frame's worth for π, however many rows its frames
// carried; for γ, a frame's worth more than it held pending, so a burst
// of held-back spans comes back whole.
func TestLentRowsCountInMemory(t *testing.T) {
	pi := NewProject("π", func(v any, row map[string]any) { row["v"] = v })
	if err := pi.Subscribe(&rowReader{}, 0); err != nil {
		t.Fatal(err)
	}
	in := make(temporal.Batch, 500)
	for i := range in {
		in[i] = el(i, temporal.Time(i), temporal.Time(i+1))
	}
	pi.ProcessBatch(in, 0)
	if got, want := pi.MemoryUsage(), pubsub.FrameCap*rowBytes; got != want {
		t.Fatalf("π reports MemoryUsage %d after %d rows, want a frame's worth of free rows, %d", got, len(in), want)
	}

	g, plain := seqGroup(), NewGroupBy("plain", tupKey, aggregate.NewCount, nil)
	if err := g.Subscribe(&rowReader{}, 0); err != nil {
		t.Fatal(err)
	}
	// Group 0 holds back the spans of groups 1 to 4 until it expires.
	in = temporal.Batch{el(tup(0, "hold"), 0, 400)}
	for i := 1; i < 400; i++ {
		in = append(in, el(tup(1+i%4, i), temporal.Time(i), temporal.Time(i+3)))
	}
	for _, op := range []frameOp{g, plain} {
		op.ProcessBatch(in, 0)
	}
	held := g.buffered()
	if held < 4*pubsub.FrameCap {
		t.Fatalf("%d spans held back, want a burst of several frames", held)
	}
	release := temporal.Batch{el(tup(1, "late"), 400, 401)}
	for _, op := range []frameOp{g, plain} {
		op.ProcessBatch(release, 0)
	}
	free := g.free.bytes() / rowBytes
	if free <= pubsub.FrameCap || free > held+pubsub.FrameCap {
		t.Fatalf("γ keeps %d free rows after a burst of %d, want more than a frame's worth and at most %d", free, held, held+pubsub.FrameCap)
	}
	if got, want := g.MemoryUsage(), plain.MemoryUsage()+free*rowBytes; got != want {
		t.Fatalf("γ reports MemoryUsage %d, want its state's %d and its free rows' %d", got, plain.MemoryUsage(), free*rowBytes)
	}
}

// rowKeeper keeps every row it is handed without declaring
// pubsub.ValueKeeper: the mistake the poison exposes.
type rowKeeper struct{ kept []map[string]any }

func (k *rowKeeper) Name() string { return "keeper" }
func (k *rowKeeper) Done(int)     {}

func (k *rowKeeper) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		k.kept = append(k.kept, e.Value.(map[string]any))
	}
}

// A sink that keeps rows without declaring KeepsValues is lent them like
// any borrower, and once π takes them back it holds the poison, not the
// fields it was handed. A Collector beside it declares KeepsValues and
// keeps intact copies.
func TestLentRowKeptByUndeclaredSinkIsPoisoned(t *testing.T) {
	pi := NewProject("π", func(v any, row map[string]any) { row["v"] = v })
	undeclared, declared := &rowKeeper{}, pubsub.NewCollector("declared", 1)
	for _, s := range []pubsub.Sink{undeclared, declared} {
		if err := pi.Subscribe(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	in := temporal.Batch{el(1, 0, 1), el(2, 1, 2), el(3, 2, 3)}
	pi.ProcessBatch(in, 0)
	if len(undeclared.kept) != len(in) {
		t.Fatalf("the undeclared sink kept %d rows, want %d", len(undeclared.kept), len(in))
	}
	for i, row := range undeclared.kept {
		if _, poisoned := row[poisonField]; !poisoned || len(row) != 1 {
			t.Fatalf("row %d kept past the call holds %v, want only the poison", i, row)
		}
	}
	for i, v := range declared.Values() {
		if row := v.(map[string]any); len(row) != 1 || row["v"] != in[i].Value {
			t.Fatalf("the declared keeper's row %d holds %v, want v=%v", i, row, in[i].Value)
		}
	}
}
