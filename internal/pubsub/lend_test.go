package pubsub

import (
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

// A lending publisher hands its own values to borrowers only: owners —
// plain sinks and a borrower behind a barrier gate — share one copy per
// element, made once whatever their number, and a publisher that does
// not lend copies nothing.
func TestLendHandsBorrowersTheFrameAndOwnersCopies(t *testing.T) {
	lent := NewSourceBase("lent")
	clones := 0
	lent.Lend(func(v any) any {
		clones++
		c := *v.(*int)
		return &c
	})
	borrower := &borrowSink{NewCollector("borrower", 1)}
	owner1, owner2 := NewCollector("owner1", 1), NewCollector("owner2", 1)
	gated := gatedBorrower{newMergePipe("gated")}
	behindGate := NewCollector("behind-gate", 1)
	for _, s := range []Sink{borrower, owner1, owner2, gated} {
		if err := lent.Subscribe(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := gated.Subscribe(behindGate, 0); err != nil {
		t.Fatal(err)
	}
	row := new(int)
	frame := temporal.Batch{temporal.At(row, 1), temporal.At(row, 2)}
	*row = 7
	lent.TransferBatch(frame)
	if clones != len(frame) {
		t.Fatalf("%d clones for a %d-element frame and three owners, want one per element", clones, len(frame))
	}
	for _, v := range borrower.Values() {
		if v.(*int) != row {
			t.Fatalf("the borrower was handed a copy")
		}
	}
	owned := owner1.Values()
	for i, v := range owned {
		if v.(*int) == row || *v.(*int) != 7 {
			t.Fatalf("owner got %p=%d, want a copy of %p=7", v, *v.(*int), row)
		}
		if owner2.Values()[i] != v {
			t.Fatalf("owners got different copies of element %d", i)
		}
	}
	for _, v := range behindGate.Values() {
		if v.(*int) == row {
			t.Fatalf("a gated borrower was handed the lent value")
		}
	}

	plain := NewSourceBase("plain")
	col := NewCollector("col", 1)
	if err := plain.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	plain.TransferBatch(frame)
	for _, v := range col.Values() {
		if v.(*int) != row {
			t.Fatalf("a publisher that does not lend copied a value")
		}
	}
}
