package pubsub

import (
	"runtime"
	"testing"

	"pipes/internal/temporal"
)

// borrowSink records the values it was handed; it declares that it keeps
// nothing reachable from them (the test only compares their identity).
type borrowSink struct {
	*Collector
}

func (s *borrowSink) BorrowsValues() {}

// gatedBorrower claims to borrow but blocks during barrier alignment.
type gatedBorrower struct {
	*mergePipe
}

func (gatedBorrower) BorrowsValues() {}

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

// A lending publisher hands its own values to borrowers only: owners —
// plain sinks and a borrower behind a barrier gate — share one copy per
// element, made once whatever their number, and a publisher that does
// not lend copies nothing.
func TestLendHandsBorrowersTheFrameAndOwnersCopies(t *testing.T) {
	lent := newLender("lent")
	borrower := &borrowSink{NewCollector("borrower", 1)}
	owner1, owner2 := NewCollector("owner1", 1), NewCollector("owner2", 1)
	gated := gatedBorrower{newMergePipe("gated")}
	behindGate := NewCollector("behind-gate", 1)
	subscribeAll(t, lent, borrower, owner1, owner2, gated)
	subscribeAll(t, gated, behindGate)
	frame, vals := intFrame(2)
	lent.TransferBatch(frame)
	if lent.clones != len(frame) {
		t.Fatalf("%d clones for a %d-element frame and three owners, want one per element", lent.clones, len(frame))
	}
	for i, v := range borrower.Values() {
		if v.(*int) != vals[i] {
			t.Fatalf("the borrower was handed a copy")
		}
	}
	owned := owner1.Values()
	for i, v := range owned {
		if v.(*int) == vals[i] || *v.(*int) != *vals[i] {
			t.Fatalf("owner got %p=%d, want a copy of %p=%d", v, *v.(*int), vals[i], *vals[i])
		}
		if owner2.Values()[i] != v {
			t.Fatalf("owners got different copies of element %d", i)
		}
	}
	for i, v := range behindGate.Values() {
		if v.(*int) == vals[i] {
			t.Fatalf("a gated borrower was handed the lent value")
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

// A lender whose snapshot holds only owners — plain sinks and a borrower
// behind a barrier gate — lends nothing: every subscriber gets its own
// values, nothing is cloned and nothing comes back.
func TestLenderWithoutBorrowerGivesItsValues(t *testing.T) {
	lent := newLender("lent")
	owner := NewCollector("owner", 1)
	gated := gatedBorrower{newMergePipe("gated")}
	behindGate := NewCollector("behind-gate", 1)
	subscribeAll(t, lent, owner, gated)
	subscribeAll(t, gated, behindGate)
	frame, vals := intFrame(5)
	lent.TransferBatch(frame)
	if lent.clones != 0 || len(lent.reclaims) != 0 {
		t.Fatalf("%d clones and %d values reclaimed with no borrower subscribed, want none", lent.clones, len(lent.reclaims))
	}
	for _, c := range []*Collector{owner, behindGate} {
		for i, v := range c.Values() {
			if v.(*int) != vals[i] {
				t.Fatalf("%s was handed a copy, want the publisher's value", c.Name())
			}
		}
	}
}

// reclaimWatch is a subscriber that fails if any value of the frame it
// is handed has come back to the publisher already.
type reclaimWatch struct {
	*Collector
	t    *testing.T
	lent *lender
}

func (w *reclaimWatch) ProcessBatch(b temporal.Batch, input int) {
	if n := len(w.lent.reclaims); n != 0 {
		w.t.Errorf("%s was handed a frame after %d of its values came back", w.Name(), n)
	}
	w.Collector.ProcessBatch(b, input)
}

// borrowingWatch is a reclaimWatch that borrows.
type borrowingWatch struct{ *reclaimWatch }

func (borrowingWatch) BorrowsValues() {}

// With a borrower subscribed, every lent value comes back exactly once,
// after every subscriber — borrowers before and after the owner — has
// returned.
func TestLenderReclaimsEveryLentValueOnce(t *testing.T) {
	lent := newLender("lent")
	watch := func(name string) *reclaimWatch {
		return &reclaimWatch{Collector: NewCollector(name, 1), t: t, lent: lent}
	}
	first, owner, last := borrowingWatch{watch("first")}, watch("owner"), borrowingWatch{watch("last")}
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
	for i, v := range owner.Values() {
		if lent.reclaims[v.(*int)] != 0 {
			t.Fatalf("the owner's value %d came back to the publisher", i)
		}
	}
}

// keeper is an owner that records every value it is handed and the
// number the value held then.
type keeper struct {
	*Collector
	kept  []*int
	seen  []int
	owned map[*int]bool
}

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
	owner := &keeper{Collector: NewCollector("owner", 1), owned: map[*int]bool{}}
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
	borrower := &borrowSink{NewCollector("borrower", 1)}

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
