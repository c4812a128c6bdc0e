package pubsub

import (
	"runtime"
	"testing"

	"pipes/internal/temporal"
)

// recorder is a terminal sink's bookkeeping: the values it was handed,
// in order (the tests compare their identity).
type recorder struct {
	name string
	vals []any
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Done(int)     {}

// borrowSink is a terminal frame sink that declares nothing, so a lender
// lends it its values.
type borrowSink struct{ recorder }

func newBorrowSink(name string) *borrowSink { return &borrowSink{recorder{name: name}} }

func (s *borrowSink) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		s.vals = append(s.vals, e.Value)
	}
}

// elementOwner is a per-element sink: it declares nothing, yet owns
// what it is handed, since Process may keep it.
type elementOwner struct{ recorder }

func (s *elementOwner) Process(e temporal.Element, _ int) { s.vals = append(s.vals, e.Value) }

// relay is a single-input pipe forwarding each frame: it declares
// nothing, yet owns what it is handed, since what it
// publishes reaches sinks of its own.
type relay struct{ PipeBase }

func newRelay(name string) *relay { return &relay{NewPipeBase(name, 1)} }

func (r *relay) ProcessBatch(b temporal.Batch, _ int) { r.TransferBatch(b) }

// lender is a publisher that lends *int values and counts what it
// clones and gets back.
type lender struct {
	SourceBase
	clones   int
	reclaims map[*int]int
}

func newLender(name string) *lender {
	l := &lender{SourceBase: NewSourceBase(name), reclaims: map[*int]int{}}
	l.Lend(func(v any) any {
		l.clones++
		c := *v.(*int)
		return &c
	}, func(v any) { l.reclaims[v.(*int)]++ })
	return l
}

// intFrame returns n distinct values 7, 8, … as a frame.
func intFrame(n int) (temporal.Batch, []*int) {
	frame := make(temporal.Batch, n)
	vals := make([]*int, n)
	for i := range frame {
		vals[i] = new(int)
		*vals[i] = 7 + i
		frame[i] = temporal.At(vals[i], temporal.Time(i))
	}
	return frame, vals
}

// subscribeAll subscribes each sink to src's input 0.
func subscribeAll(t *testing.T, src Source, sinks ...Sink) {
	t.Helper()
	for _, s := range sinks {
		if err := src.Subscribe(s, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// owners subscribes, besides a Collector, one sink of every kind that
// owns without declaring it: a per-element sink and a pipe, with a Collector behind the pipe. It returns what each
// kind was handed.
func owners(t *testing.T, src Source) (collector *Collector, handed map[string]func() []any) {
	t.Helper()
	collector = NewCollector("collector", 1)
	element := &elementOwner{recorder{name: "element"}}
	pipe, behindPipe := newRelay("pipe"), NewCollector("behind-pipe", 1)
	subscribeAll(t, src, collector, element, pipe)
	subscribeAll(t, pipe, behindPipe)
	return collector, map[string]func() []any{
		"a Collector":            collector.Values,
		"a per-element sink":     func() []any { return element.vals },
		"the sink behind a pipe": behindPipe.Values,
	}
}

// A lending publisher hands its own values to the sinks that borrow — a
// terminal frame sink that declares nothing — and only to them: owners,
// the Collector that declares KeepsValues and the sinks that never
// borrow, share one copy per element, made once whatever their number,
// and a publisher that does not lend copies nothing.
func TestLendHandsBorrowersTheFrameAndOwnersCopies(t *testing.T) {
	lent := newLender("lent")
	borrower := newBorrowSink("borrower")
	subscribeAll(t, lent, borrower)
	collector, handed := owners(t, lent)
	frame, vals := intFrame(2)
	lent.TransferBatch(frame)
	if lent.clones != len(frame) {
		t.Fatalf("%d clones for a %d-element frame and %d owners, want one per element", lent.clones, len(frame), len(handed))
	}
	for i, v := range borrower.vals {
		if v.(*int) != vals[i] {
			t.Fatalf("the borrower was handed a copy")
		}
	}
	owned := collector.Values()
	for i, v := range owned {
		if v.(*int) == vals[i] || *v.(*int) != *vals[i] {
			t.Fatalf("the Collector got %p=%d, want a copy of %p=%d", v, *v.(*int), vals[i], *vals[i])
		}
	}
	for kind, got := range handed {
		for i, v := range got() {
			if v != owned[i] {
				t.Fatalf("%s was not handed the owners' copy of element %d", kind, i)
			}
		}
	}

	plain := NewSourceBase("plain")
	col := NewCollector("col", 1)
	subscribeAll(t, &plain, col)
	plain.TransferBatch(frame)
	for i, v := range col.Values() {
		if v.(*int) != vals[i] {
			t.Fatalf("a publisher that does not lend copied a value")
		}
	}
}

// A lender whose snapshot holds only owners lends nothing: every
// subscriber gets the publisher's values, nothing is cloned and nothing
// comes back.
func TestLenderWithoutBorrowerGivesItsValues(t *testing.T) {
	lent := newLender("lent")
	_, handed := owners(t, lent)
	frame, vals := intFrame(5)
	lent.TransferBatch(frame)
	if lent.clones != 0 || len(lent.reclaims) != 0 {
		t.Fatalf("%d clones and %d values reclaimed with no borrower subscribed, want none", lent.clones, len(lent.reclaims))
	}
	for kind, got := range handed {
		for i, v := range got() {
			if v.(*int) != vals[i] {
				t.Fatalf("%s was handed a copy, want the publisher's value", kind)
			}
		}
	}
}

// reclaimWatch is a borrowing subscriber that fails if any value of the
// frame it is handed has come back to the publisher already.
type reclaimWatch struct {
	borrowSink
	t    *testing.T
	lent *lender
}

func (w *reclaimWatch) ProcessBatch(b temporal.Batch, input int) {
	if n := len(w.lent.reclaims); n != 0 {
		w.t.Errorf("%s was handed a frame after %d of its values came back", w.Name(), n)
	}
	w.borrowSink.ProcessBatch(b, input)
}

// keepingWatch is a reclaimWatch that keeps.
type keepingWatch struct{ *reclaimWatch }

func (keepingWatch) KeepsValues() {}

// With a borrower subscribed, every lent value comes back exactly once,
// after every subscriber — borrowers before and after the owner — has
// returned.
func TestLenderReclaimsEveryLentValueOnce(t *testing.T) {
	lent := newLender("lent")
	watch := func(name string) *reclaimWatch {
		return &reclaimWatch{borrowSink: *newBorrowSink(name), t: t, lent: lent}
	}
	first, owner, last := watch("first"), keepingWatch{watch("owner")}, watch("last")
	subscribeAll(t, lent, first, owner, last)
	frame, vals := intFrame(9)
	lent.TransferBatch(frame)
	if len(lent.reclaims) != len(vals) {
		t.Fatalf("%d of %d lent values came back", len(lent.reclaims), len(vals))
	}
	for i, p := range vals {
		if n := lent.reclaims[p]; n != 1 {
			t.Fatalf("value %d came back %d times, want once", i, n)
		}
	}
	for i, v := range owner.vals {
		if v == vals[i] || lent.reclaims[v.(*int)] != 0 {
			t.Fatalf("the owner's value %d came back to the publisher", i)
		}
	}
}

// keeper is an owner: it declares KeepsValues and records every value
// it is handed and the number the value held then.
type keeper struct {
	recorder
	kept  []*int
	seen  []int
	owned map[*int]bool
}

func (k *keeper) KeepsValues() {}

func (k *keeper) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		p := e.Value.(*int)
		k.kept, k.seen = append(k.kept, p), append(k.seen, *p)
		k.owned[p] = true
	}
}

// A borrower subscribing and unsubscribing while a lender publishes, the
// way π or γ reuses its rows: whatever snapshot a frame is published
// from, no value an owner holds ever comes back, so none is refilled
// under it.
func TestBorrowerTogglingMidStreamNeverReclaimsOwnedValues(t *testing.T) {
	const width, minFrames, maxFrames = 8, 200, 1 << 16
	owner := &keeper{recorder: recorder{name: "owner"}, owned: map[*int]bool{}}
	lent := NewSourceBase("lent")
	var free []*int
	lentNow, stolen := false, 0
	lent.Lend(func(v any) any {
		c := *v.(*int)
		return &c
	}, func(v any) {
		p := v.(*int)
		if owner.owned[p] {
			stolen++
		}
		lentNow = true
		free = append(free, p)
	})
	subscribeAll(t, &lent, owner)
	borrower := newBorrowSink("borrower")

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := lent.Subscribe(borrower, 0); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
			if err := lent.Unsubscribe(borrower, 0); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	seq, lentFrames, givenFrames := 0, 0, 0
	frame := make(temporal.Batch, width)
	for n := 0; n < maxFrames && stolen == 0 && (lentFrames < minFrames || givenFrames < minFrames); n++ {
		for i := range frame {
			var p *int
			if k := len(free); k > 0 {
				p, free = free[k-1], free[:k-1]
			} else {
				p = new(int)
			}
			seq++
			*p = seq
			frame[i] = temporal.At(p, temporal.Time(seq))
		}
		lentNow = false
		lent.TransferBatch(frame)
		if lentNow {
			lentFrames++
		} else {
			givenFrames++
		}
		if n%64 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	<-stopped
	if stolen > 0 {
		t.Fatalf("%d values the owner holds came back to the publisher", stolen)
	}
	if lentFrames < minFrames || givenFrames < minFrames {
		t.Fatalf("%d frames lent and %d given, want at least %d of each", lentFrames, givenFrames, minFrames)
	}
	for i, p := range owner.kept {
		if *p != owner.seen[i] {
			t.Fatalf("the owner's value %d held %d when handed over and %d now: it was refilled", i, owner.seen[i], *p)
		}
	}
}
