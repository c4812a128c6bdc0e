package ops

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// rowReader borrows the rows it is handed: it reads each one in the call
// and keeps only how many fields it read and, when asked to, which rows.
type rowReader struct {
	n    int
	seen map[uintptr]bool // nil unless the test tracks the rows
}

func (r *rowReader) Name() string { return "reader" }
func (r *rowReader) Done(int)     {}

func (r *rowReader) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		row := e.Value.(map[string]any)
		r.n += len(row)
		if r.seen != nil {
			r.seen[rowID(row)] = true
		}
	}
}

// rowID is a row's identity: the address of its map.
func rowID(row map[string]any) uintptr { return reflect.ValueOf(row).Pointer() }

// lentRows returns γ's free list.
func lentRows(g *GroupBy) *rows[map[string]any] { return g.free.(*rows[map[string]any]) }

// seqGroup returns a γ over tup values that lends its rows, each
// numbered by the span that filled it, so a refilled row never encodes
// as it did.
func seqGroup() *GroupBy {
	seq := 0
	return NewGroupInto[map[string]any]("g", tupKey, aggregate.NewCount, []string{"k", "n", "seq"}, func(k any, agg aggregate.Aggregate, vals []any) bool {
		seq++
		vals[0], vals[1], vals[2] = k, agg.Value(), seq
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

// While a capture of γ is out, every row a borrower returns is free at
// once, poisoned, and the capture, which copied the pending results'
// cells, still encodes the cut. Over later rounds the next round releases
// every result of the cut before the encode and gives their slots, cells
// included, to new spans of other values: the encode still writes the
// cut.
func TestLentGroupRowsSurviveTheirCapture(t *testing.T) {
	g := seqGroup()
	r := lentRows(g)
	reader := &rowReader{seen: map[uintptr]bool{}}
	if err := g.Subscribe(reader, 0); err != nil {
		t.Fatal(err)
	}
	// Group 0's open span holds back every span of groups 1 to 4.
	burst := temporal.Batch{el(tup(0, "hold"), 0, 200)}
	for i := 1; i < 100; i++ {
		burst = append(burst, el(tup(1+i%4, i), temporal.Time(i), temporal.Time(i+3)))
	}
	g.ProcessBatch(burst, 0)
	want, err := ft.EncodeState(g)
	if err != nil {
		t.Fatal(err)
	}
	if imaged := g.pending(); imaged < pubsub.FrameCap || len(reader.seen) != 0 {
		t.Fatalf("%d spans pending and %d released at the cut, want at least a frame's worth and none", imaged, len(reader.seen))
	}
	fn, err := g.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// One frame expires group 0's element: the burst is released while
	// the capture is out.
	g.ProcessBatch(temporal.Batch{el(tup(1, "late"), 200, 201)}, 0)
	if len(reader.seen) == 0 {
		t.Fatal("the frame after the cut released nothing")
	}
	free := map[uintptr]bool{}
	for _, row := range r.free {
		free[rowID(row)] = true
		if _, poisoned := row[poisonField]; !poisoned || len(row) != 1 {
			t.Fatalf("a free row holds %v, want only the poison", row)
		}
	}
	for id := range reader.seen {
		if !free[id] {
			t.Fatalf("%d rows were lent while the capture was out, and a row that came back is not on the free list (%d free)", len(reader.seen), len(r.free))
		}
	}
	got, err := fn(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the capture encoded %d bytes, the cut's state is %d: they differ", len(got), len(want))
	}
	if next := r.get(); len(next) != 0 {
		t.Fatalf("the next get returned a row of %d fields, want an empty row", len(next))
	}

	round := captureRounds(t, seqGroup(), true)
	for range 4 {
		round()
	}
}

// Over checkpoint rounds — capture, a burst of held-back spans released
// before the encode, encode — a warmed γ builds every span's row in one
// it already has: a round allocates a few objects, not a row for each
// span it released.
func TestLentGroupRowsReusedAcrossRounds(t *testing.T) {
	g := NewGroupInto[map[string]any]("g", tupKey, aggregate.NewCount, []string{"k", "n"}, func(k any, agg aggregate.Aggregate, vals []any) bool {
		vals[0], vals[1] = k, agg.Value()
		return true
	})
	round := captureRounds(t, g, false)
	round()
	allocs := testing.AllocsPerRun(20, round)
	t.Logf("a warmed round allocates %.1f objects for the %d spans it releases", allocs, roundSpan)
	if allocs > 16 {
		t.Fatalf("a warmed round allocates %.1f objects for the %d spans it releases, want at most 16", allocs, roundSpan)
	}
}

// roundSpan is the time range of a captureRounds round.
const roundSpan = 200

// captureRounds subscribes a reader to g and returns a checkpoint round
// over it: capture, a batch whose first element expires the previous
// round's group-0 element and so releases every span that element held
// back, then encode. With check, a round asserts that the cut's pending
// slots were mostly refilled with other values before the encode and
// that the encode still writes the cut.
func captureRounds(t *testing.T, g *GroupBy, check bool) func() {
	t.Helper()
	if err := g.Subscribe(&rowReader{}, 0); err != nil {
		t.Fatal(err)
	}
	in := make(temporal.Batch, roundSpan)
	vals := make([]any, roundSpan)
	for i := range vals {
		vals[i] = tup(1+i%4, i)
	}
	vals[0] = tup(0, "hold")
	var buf []byte
	base := temporal.Time(0)
	return func() {
		var want []byte
		var cut map[int32][]any // the cut's pending slots and their cells
		if check {
			var err error
			if want, err = ft.EncodeState(g); err != nil {
				t.Fatal(err)
			}
			cut = map[int32][]any{}
			for _, slot := range g.out.All() {
				cut[slot] = slices.Clone(g.cells.at(slot))
			}
		}
		fn, err := g.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		// The first element expires the previous round's group-0
		// element, which held back every span of that round: they are
		// released before the encode. It then holds back this round's
		// spans, which take the slots the released ones left.
		in[0] = el(vals[0], base, base+roundSpan)
		for i := 1; i < roundSpan; i++ {
			in[i] = el(vals[i], base+temporal.Time(i), base+temporal.Time(i+3))
		}
		g.ProcessBatch(in, 0)
		if check && base > 0 {
			if len(cut) == 0 {
				t.Fatal("nothing was pending at the cut")
			}
			reused := 0
			for _, slot := range g.out.All() {
				if was, ok := cut[slot]; ok && !reflect.DeepEqual(was, g.cells.at(slot)) {
					reused++
				}
			}
			if reused < len(cut)/2 {
				t.Fatalf("%d of the cut's %d pending slots hold other values before the encode, want most of them", reused, len(cut))
			}
		}
		if buf, err = fn(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if check && !bytes.Equal(buf, want) {
			t.Fatalf("the capture encoded %d bytes, the cut's state is %d: they differ", len(buf), len(want))
		}
		base += roundSpan
	}
}

// A γ held back by one long element closes 10 000 spans that all wait
// in its core, then releases them into a borrowing sink. A pending span
// is its cells, 16 bytes a column beside the core's slot, and its row
// exists only from its release until the sink returns it after the
// frame: the node makes at most two frames of rows, not one a span.
func TestHeldBackGroupLendsAFrameOfRows(t *testing.T) {
	const n = 10000
	g, plain := seqGroup(), NewGroupBy("plain", tupKey, aggregate.NewCount, nil)
	reader := &rowReader{seen: map[uintptr]bool{}}
	if err := g.Subscribe(reader, 0); err != nil {
		t.Fatal(err)
	}
	// Group 0 holds every later span back; groups 1 to n each hold one
	// element that ends at n+1, where they all close.
	in := temporal.Batch{el(tup(0, "hold"), 0, n+2)}
	for i := 1; i <= n; i++ {
		in = append(in, el(tup(i, i), temporal.Time(i), n+1))
	}
	in = append(in, el(tup(-1, "close"), n+1, n+2))
	for _, op := range []*GroupBy{g, plain} {
		for i := 0; i < len(in); i += pubsub.FrameCap {
			op.ProcessBatch(in[i:min(i+pubsub.FrameCap, len(in))], 0)
		}
	}
	if g.pending() < n || len(reader.seen) != 0 {
		t.Fatalf("%d spans pending and %d rows made, want at least %d and none", g.pending(), len(reader.seen), n)
	}
	const w = 3 // the columns of seqGroup
	perResult := float64(g.MemoryUsage()-plain.MemoryUsage()) / float64(g.pending())
	t.Logf("a pending span holds %.1f bytes beside the core's slot", perResult)
	if perResult > 1.1*w*16 {
		t.Fatalf("a pending span holds %.1f bytes beside the core's slot, want at most about %d", perResult, w*16)
	}
	g.ProcessBatch(temporal.Batch{el(tup(-2, "release"), n+2, n+3)}, 0)
	if got := reader.n / w; got < n {
		t.Fatalf("the reader was handed %d spans, want at least %d", got, n)
	}
	if made := len(reader.seen); made > 2*pubsub.FrameCap {
		t.Fatalf("γ made %d rows for %d spans, want at most %d", made, reader.n/w, 2*pubsub.FrameCap)
	}
}

// A lending node's free rows count in its MemoryUsage and stay within a
// frame's worth, however many rows its frames carried: π's, and γ's,
// whose pending spans count as their cells, none of them a row.
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
	r := lentRows(g)
	if err := g.Subscribe(&rowReader{}, 0); err != nil {
		t.Fatal(err)
	}
	both := func(b temporal.Batch) {
		for _, op := range []frameOp{g, plain} {
			op.ProcessBatch(b, 0)
		}
	}
	accounted := func(when string) {
		t.Helper()
		g.snaps.drop() // the kept captures differ by the cells they copied
		plain.snaps.drop()
		rowsBytes := len(r.free) * rowBytes
		if got, want := g.MemoryUsage(), plain.MemoryUsage()+g.cells.bytes()+rowsBytes; got != want {
			t.Fatalf("%s, γ reports MemoryUsage %d, want its state's %d, its cells' %d and its %d free rows' %d",
				when, got, plain.MemoryUsage(), g.cells.bytes(), len(r.free), rowsBytes)
		}
		if len(r.free) > pubsub.FrameCap {
			t.Fatalf("%s, γ keeps %d free rows, want at most a frame's worth", when, len(r.free))
		}
	}
	// Group 0 holds back the spans of groups 1 to 4 until it expires.
	in = temporal.Batch{el(tup(0, "hold"), 0, 400)}
	for i := 1; i < 400; i++ {
		in = append(in, el(tup(1+i%4, i), temporal.Time(i), temporal.Time(i+3)))
	}
	both(in)
	pending := g.pending()
	if pending < 4*pubsub.FrameCap || len(r.free) != 0 {
		t.Fatalf("%d spans held back and %d free rows, want a burst of several frames and no row yet", pending, len(r.free))
	}
	if g.cells.bytes() < pending*3*16 {
		t.Fatalf("γ's cells hold %d bytes for %d pending spans of 3 columns", g.cells.bytes(), pending)
	}
	accounted("with a burst pending")
	var images []func([]byte) ([]byte, error)
	for _, op := range []*GroupBy{g, plain} {
		fn, err := op.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, fn)
	}
	both(temporal.Batch{el(tup(1, "late"), 400, 401)})
	if g.pending() > 5 || len(r.free) == 0 {
		t.Fatalf("after the release γ has %d spans pending and %d free rows, want at most the 5 it closed and the rows back", g.pending(), len(r.free))
	}
	accounted("while its image is out")
	for _, fn := range images {
		if _, err := fn(nil); err != nil {
			t.Fatal(err)
		}
	}
	accounted("once its image is back")
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
