package service

import (
	"maps"
	"testing"

	"pipes/internal/cql"
	"pipes/internal/ops"
	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// A tenant projection or group-by lends its rows to the result sink
// (SEMANTICS.md §3.7): these tests hold that a sink keeping values — a
// user sink subscribed beside it — still only ever keeps rows of its
// own.

func bidRow(i int) cql.Tuple {
	return cql.Tuple{"id": i, "price": float64(i) + 0.5, "name": "bid"}
}

// projectBid is the tenant π of these tests: it renames, so a row that
// leaked from one input to another shows.
func projectBid(v any, row cql.Tuple) {
	in := v.(cql.Tuple)
	row["bid"] = in["id"]
	row["price"] = in["price"]
}

func projectedBid(i int) cql.Tuple {
	row := cql.Tuple{}
	projectBid(bidRow(i), row)
	return row
}

// checkKept requires every element a retaining sink kept to be the
// projection of the input row its Start names, and returns the Starts.
func checkKept(t *testing.T, kept []temporal.Element) []int {
	t.Helper()
	starts := make([]int, len(kept))
	for j, e := range kept {
		i := int(e.Start)
		if got, want := e.Value.(cql.Tuple), projectedBid(i); !maps.Equal(got, want) {
			t.Fatalf("kept result %d (input %d) is %v, want %v: a lent row reached an owner", j, i, got, want)
		}
		starts[j] = i
	}
	return starts
}

// checkDelivered requires the result buffer to hold the JSON of every
// projected input row, in order.
func checkDelivered(t *testing.T, r *Reader, n int) {
	t.Helper()
	out, _, _ := r.TryNext(n + 1)
	if len(out) != n {
		t.Fatalf("buffer delivered %d results, want %d", len(out), n)
	}
	for i, e := range out {
		if want := appendValue(nil, projectedBid(i)); string(e.Data) != string(want) {
			t.Fatalf("result %d rendered %s, want %s", i, e.Data, want)
		}
	}
}

func TestLentRowsNeverReachOwners(t *testing.T) {
	const n = 1000
	for _, frame := range []int{1, 7, 64, n} {
		in := make([]temporal.Element, n)
		for i := range in {
			in[i] = temporal.At(bidRow(i), temporal.Time(i))
		}
		src := pubsub.NewSliceSource("bids", in)
		pi := ops.NewProject("π", projectBid)
		buf := NewResultBuffer(DefaultBufferBytes)
		r := buf.NewReader(0)
		kept := pubsub.NewCollector("user", 1)
		pubsub.Connect(src, pi)
		if err := pi.Subscribe(newResultSink(buf), 0); err != nil {
			t.Fatal(err)
		}
		if err := pi.Subscribe(kept, 0); err != nil {
			t.Fatal(err)
		}
		pubsub.DriveBatched(src, frame)
		kept.Wait()
		if starts := checkKept(t, kept.Elements()); len(starts) != n {
			t.Fatalf("frame %d: the user sink kept %d of %d results", frame, len(starts), n)
		}
		checkDelivered(t, r, n)
		r.Close()
	}
}

// The owner subscribes while frames flow: whatever snapshot a frame is
// published from, the owner's entry in it must get it copies.
func TestOwnerSubscribingMidStreamGetsCopies(t *testing.T) {
	const n, from, by = 4000, 1000, 3000
	reached, subscribed := make(chan struct{}), make(chan struct{})
	next := 0
	src := pubsub.NewFuncSource("bids", func() (temporal.Element, bool) {
		if next == n {
			return temporal.Element{}, false
		}
		switch next {
		case from:
			close(reached)
		case by:
			<-subscribed // the owner is in by now, frames still to come
		}
		e := temporal.At(bidRow(next), temporal.Time(next))
		next++
		return e, true
	})
	pi := ops.NewProject("π", projectBid)
	buf := NewResultBuffer(4 << 20) // holds all n: nothing is evicted
	r := buf.NewReader(0)
	defer r.Close()
	pubsub.Connect(src, pi)
	if err := pi.Subscribe(newResultSink(buf), 0); err != nil {
		t.Fatal(err)
	}
	published := make(chan struct{})
	go func() {
		defer close(published)
		pubsub.DriveBatched(src, 64)
	}()
	<-reached
	kept := pubsub.NewCollector("user", 1)
	if err := pi.Subscribe(kept, 0); err != nil {
		t.Fatal(err)
	}
	close(subscribed)
	<-published
	kept.Wait()
	starts := checkKept(t, kept.Elements())
	if len(starts) == 0 || starts[0] > by || starts[len(starts)-1] != n-1 {
		t.Fatalf("the owner kept inputs %d..%d, want a run from at most %d to %d",
			starts[0], starts[len(starts)-1], by, n-1)
	}
	for j := 1; j < len(starts); j++ {
		if starts[j] != starts[j-1]+1 {
			t.Fatalf("the owner missed inputs between %d and %d", starts[j-1], starts[j])
		}
	}
	checkDelivered(t, r, n)
}

// A 64-row frame from a tenant π to its result sink costs the arena and
// nothing per row: the rows are the projection's own, lent to the sink
// (129 allocations per frame when π built a fresh tuple per row).
func TestProjectedFrameAllocations(t *testing.T) {
	b := NewResultBuffer(DefaultBufferBytes)
	pi := ops.NewProject("π", projectBid)
	if err := pi.Subscribe(newResultSink(b), 0); err != nil {
		t.Fatal(err)
	}
	r := b.NewReader(0)
	defer r.Close()
	frame := make(temporal.Batch, 64)
	for i := range frame {
		frame[i] = temporal.At(bidRow(i), temporal.Time(i))
	}
	deliver := func() {
		pi.ProcessBatch(frame, 0)
		if out, _, _ := r.TryNext(len(frame)); len(out) != len(frame) {
			t.Fatalf("read %d of %d results", len(out), len(frame))
		}
	}
	for i := 0; i < 200; i++ { // fill the ring: steady state evicts
		deliver()
	}
	if got := testing.AllocsPerRun(200, deliver); got > 1 {
		t.Fatalf("%.1f allocations per 64-row projected frame, want <= 1", got)
	}
}

// The result sink subscribes while frames flow and unsubscribes again:
// the projection lends its rows only meanwhile, and the user sink beside
// it, there throughout, must keep rows of its own whether a frame was
// lent or not.
func TestBorrowerSubscribingMidStreamLeavesOwnersTheirRows(t *testing.T) {
	const n, on, off = 6000, 1000, 3000
	steps := []int{on, off}
	step, done := make(chan struct{}), make(chan struct{})
	next := 0
	src := pubsub.NewFuncSource("bids", func() (temporal.Element, bool) {
		if next == n {
			return temporal.Element{}, false
		}
		if len(steps) > 0 && next == steps[0] {
			steps = steps[1:]
			step <- struct{}{} // the subscriber side acts while frames wait
			<-step
		}
		e := temporal.At(bidRow(next), temporal.Time(next))
		next++
		return e, true
	})
	pi := ops.NewProject("π", projectBid)
	kept := pubsub.NewCollector("user", 1)
	pubsub.Connect(src, pi)
	if err := pi.Subscribe(kept, 0); err != nil {
		t.Fatal(err)
	}
	buf := NewResultBuffer(4 << 20)
	r := buf.NewReader(0)
	defer r.Close()
	results := newResultSink(buf)
	go func() {
		defer close(done)
		pubsub.DriveBatched(src, 64)
	}()
	<-step
	if err := pi.Subscribe(results, 0); err != nil {
		t.Fatal(err)
	}
	step <- struct{}{}
	<-step
	if err := pi.Unsubscribe(results, 0); err != nil {
		t.Fatal(err)
	}
	step <- struct{}{} // the frames left are given, not lent
	<-done
	kept.Wait()
	if starts := checkKept(t, kept.Elements()); len(starts) != n {
		t.Fatalf("the user sink kept %d of %d results", len(starts), n)
	}
	out, _, _ := r.TryNext(n)
	if len(out) == 0 || len(out) > off-on+64 {
		t.Fatalf("the result sink got %d results while subscribed for %d inputs", len(out), off-on)
	}
}

// A tenant γ lends its span rows to the result sink as π does: in the
// steady state a frame of 64 spans costs the arena and nothing per span
// (about two allocations a span when γ built a fresh tuple for each).
func TestGroupedFrameAllocations(t *testing.T) {
	const groups, width = 8, 16 // each group's element expires as its next arrives
	cat := optimizer.NewCatalog()
	cat.Register("bids", pubsub.NewSliceSource("bids", nil), 1)
	q, err := cql.Parse(`SELECT k AS k, COUNT(*) AS n FROM bids [RANGE 16] GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := optimizer.New(cat).AddQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	gamma, ok := inst.Root.(*ops.GroupBy)
	if !ok {
		t.Fatalf("the query's root is %T, want the γ node", inst.Root)
	}
	b := NewResultBuffer(DefaultBufferBytes)
	if err := gamma.Subscribe(newResultSink(b), 0); err != nil {
		t.Fatal(err)
	}
	r := b.NewReader(0)
	defer r.Close()
	in := make([]cql.Tuple, groups)
	for k := range in {
		in[k] = cql.Tuple{"k": k, "price": 1.5}
	}
	frame := make(temporal.Batch, 64)
	next, spans := 0, 0
	deliver := func() {
		for i := range frame {
			frame[i] = temporal.NewElement(in[next%groups], temporal.Time(next), temporal.Time(next+width))
			next++
		}
		gamma.ProcessBatch(frame, 0)
		out, _, _ := r.TryNext(2 * len(frame))
		spans = len(out)
	}
	for i := 0; i < 200; i++ { // fill the ring: steady state evicts
		deliver()
	}
	got := testing.AllocsPerRun(200, deliver)
	if spans != len(frame) {
		t.Fatalf("read %d spans for a %d-element frame, want one each", spans, len(frame))
	}
	if got > 1 {
		t.Fatalf("%.1f allocations per 64-span grouped frame, want <= 1", got)
	}
}
