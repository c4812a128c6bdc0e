package ops

import (
	"bytes"
	"reflect"
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

// While a capture of γ is out, the rows its image holds stay as they
// are and leave as copies; every row a borrower returns is free at once.
// Once the writer has encoded the image, the next get frees the imaged
// rows too, poisoned like any row that comes back.
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
	imaged := g.pending()
	if imaged < pubsub.FrameCap || len(reader.seen) != 0 {
		t.Fatalf("%d spans pending and %d released at the cut, want at least a frame's worth and none", imaged, len(reader.seen))
	}
	fn, err := g.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// One frame expires group 0's element: the burst is released while
	// the image is out, and nothing gets a row after it comes back.
	g.ProcessBatch(temporal.Batch{el(tup(1, "late"), 200, 201)}, 0)
	free := map[uintptr]bool{}
	for _, row := range r.free {
		free[rowID(row)] = true
	}
	for id := range reader.seen {
		if !free[id] {
			t.Fatalf("%d rows were lent while the image was out, and a row that came back is not on the free list (%d free)", len(reader.seen), len(r.free))
		}
	}
	if len(r.held) != imaged {
		t.Fatalf("γ holds %d rows while its image is out, want the %d it imaged", len(r.held), imaged)
	}
	held := map[uintptr]bool{}
	for _, row := range r.held {
		if held[rowID(row)] = true; reader.seen[rowID(row)] {
			t.Fatal("a row of the image still out was lent")
		}
	}

	got, err := fn(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the capture encoded %d bytes, the cut's state is %d: they differ", len(got), len(want))
	}
	next := r.get()
	if len(r.held) != 0 {
		t.Fatalf("γ still holds %d rows after its image came back", len(r.held))
	}
	freed := 0
	for _, row := range r.free {
		if !held[rowID(row)] {
			continue
		}
		freed++
		if _, poisoned := row[poisonField]; !poisoned || len(row) != 1 {
			t.Fatalf("a freed imaged row holds %v, want only the poison", row)
		}
	}
	if held[rowID(next)] {
		freed++
	}
	if freed != imaged || len(next) != 0 {
		t.Fatalf("the next get freed %d of the %d imaged rows and returned a row of %d fields, want all of them and an empty row", freed, imaged, len(next))
	}
}

// Over checkpoint rounds — capture, a burst of held-back spans released
// while the image is out, encode — a warmed γ builds every span in a row
// it already has: a round allocates a few objects, not one row for each
// span it released while its image was out. Nothing gets a row between
// an encode and the next capture, so the rows the image held must be
// freed by that capture, not left held through the next image.
func TestLentGroupRowsReusedAcrossRounds(t *testing.T) {
	g := NewGroupInto("g", tupKey, aggregate.NewCount, func(k any, agg aggregate.Aggregate, row map[string]any) bool {
		row["k"], row["n"] = k, agg.Value()
		return true
	})
	if err := g.Subscribe(&rowReader{}, 0); err != nil {
		t.Fatal(err)
	}
	const span = 200 // each round's time range
	in := make(temporal.Batch, span)
	vals := make([]any, span)
	for i := range vals {
		vals[i] = tup(1+i%4, i)
	}
	vals[0] = tup(0, "hold")
	var buf []byte
	base := temporal.Time(0)
	imaged := 0
	round := func() {
		fn, err := g.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		imaged += g.pending()
		// The first element expires the previous round's group-0 element,
		// which held back every span of that round: they are released
		// while the image is out. It then holds back this round's spans.
		in[0] = el(vals[0], base, base+span)
		for i := 1; i < span; i++ {
			in[i] = el(vals[i], base+temporal.Time(i), base+temporal.Time(i+3))
		}
		g.ProcessBatch(in, 0)
		if buf, err = fn(buf[:0]); err != nil {
			t.Fatal(err)
		}
		base += span
	}
	round()
	imaged = 0
	const rounds = 20
	allocs := testing.AllocsPerRun(rounds, round)
	perRound := imaged / (rounds + 1)
	t.Logf("a warmed round allocates %.1f objects; it released %d imaged spans", allocs, perRound)
	if perRound < 2*pubsub.FrameCap {
		t.Fatalf("a round released %d imaged spans, want a burst of several frames", perRound)
	}
	if allocs > 16 {
		t.Fatalf("a warmed round allocates %.1f objects for %d imaged spans it released, want at most 16", allocs, perRound)
	}
}

// A lending node's free rows count in its MemoryUsage and stay within
// their bound: a frame's worth for π, however many rows its frames
// carried; for γ, a frame's worth more than the most rows it has had
// pending or held, so a burst of held-back spans comes back whole and
// stays free once it has drained. While a capture is out, γ's held rows
// count too.
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
		rowsBytes := (len(r.free) + len(r.held)) * rowBytes
		if got, want := g.MemoryUsage(), plain.MemoryUsage()+cap(g.imaged)*8+rowsBytes; got != want {
			t.Fatalf("%s, γ reports MemoryUsage %d, want its state's %d, its imaged slots' bits' %d and its %d free and %d held rows' %d",
				when, got, plain.MemoryUsage(), cap(g.imaged)*8, len(r.free), len(r.held), rowsBytes)
		}
	}
	// Group 0 holds back the spans of groups 1 to 4 until it expires.
	in = temporal.Batch{el(tup(0, "hold"), 0, 400)}
	for i := 1; i < 400; i++ {
		in = append(in, el(tup(1+i%4, i), temporal.Time(i), temporal.Time(i+3)))
	}
	both(in)
	pending := g.pending()
	if pending < 4*pubsub.FrameCap {
		t.Fatalf("%d spans held back, want a burst of several frames", pending)
	}
	var images []func([]byte) ([]byte, error)
	for _, op := range []*GroupBy{g, plain} {
		fn, err := op.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, fn)
	}
	both(temporal.Batch{el(tup(1, "late"), 400, 401)})
	if len(r.held) != pending {
		t.Fatalf("γ holds %d rows while its image is out, want the %d it imaged", len(r.held), pending)
	}
	// The release closes at most one more span in each of the 5 groups.
	if r.peak < pending || r.peak > pending+5 {
		t.Fatalf("γ's high-water mark is %d rows, want the %d it had pending and at most 5 the release closed", r.peak, pending)
	}
	if free := len(r.free); free <= pubsub.FrameCap || free > r.peak+pubsub.FrameCap {
		t.Fatalf("γ keeps %d free rows after a burst of %d, want more than a frame's worth and at most %d", free, pending, r.peak+pubsub.FrameCap)
	}
	accounted("while its image is out")

	for _, fn := range images {
		if _, err := fn(nil); err != nil {
			t.Fatal(err)
		}
	}
	// The burst has drained; the next span frees the held rows, and the
	// high-water mark keeps them for the next burst.
	both(temporal.Batch{el(tup(2, "next"), 402, 403)})
	if len(r.held) != 0 || len(r.free) <= pubsub.FrameCap+g.pending() || len(r.free) > r.peak+pubsub.FrameCap {
		t.Fatalf("after the encode γ holds %d rows and keeps %d free with %d pending, want none held and more than a frame's worth over what is pending, at most %d",
			len(r.held), len(r.free), g.pending(), r.peak+pubsub.FrameCap)
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
