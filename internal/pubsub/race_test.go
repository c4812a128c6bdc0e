package pubsub

// Regression tests for the concurrency contract of the publish-subscribe
// layer, meant to run under -race:
//
//   - Transfer iterates a copy-on-write subscriber snapshot, so sinks can
//     subscribe and unsubscribe while another goroutine publishes.
//   - Buffer never signals done downstream while a drained element is
//     still in flight (the drain/done ordering fix).
//   - SliceSource progress can be polled concurrently with emission.

import (
	"sync"
	"sync/atomic"
	"testing"

	"pipes/internal/temporal"
)

func TestTransferDuringSubscribeUnsubscribeStorm(t *testing.T) {
	src := NewSourceBase("src")
	stableSink := NewCounter("stable", 1)
	if err := src.Subscribe(stableSink, 0); err != nil {
		t.Fatal(err)
	}

	const publishers = 4
	const churns = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var published atomic.Int64
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each publisher brings its own frame: Transfer's one-element
			// scratch belongs to a single publisher at a time.
			frame := temporal.Batch{temporal.At(1, 0)}
			for {
				select {
				case <-stop:
					return
				default:
					src.TransferBatch(frame)
					published.Add(1)
				}
			}
		}()
	}
	// Churn the subscriber list while the publishers hammer Transfer.
	for i := 0; i < churns; i++ {
		s := NewCounter("churn", 1)
		if err := src.Subscribe(s, 0); err != nil {
			t.Fatal(err)
		}
		if err := src.Unsubscribe(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	src.SignalDone()
	if got := stableSink.Count(); got != published.Load() {
		t.Fatalf("stable sink saw %d of %d published elements", got, published.Load())
	}
	if !src.IsDone() {
		t.Fatal("source not done after SignalDone")
	}
}

func TestSignalDoneRacesTransferWithoutLoss(t *testing.T) {
	// SignalDone fires exactly once even when racing Subscribe/Transfer.
	for trial := 0; trial < 50; trial++ {
		src := NewSourceBase("src")
		var doneSignals atomic.Int64
		sink := NewFuncSink("sink", 1, func(temporal.Element, int) {}, func() {
			doneSignals.Add(1)
		})
		if err := src.Subscribe(sink, 0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src.SignalDone()
			}()
		}
		wg.Wait()
		if got := doneSignals.Load(); got != 1 {
			t.Fatalf("trial %d: done fired %d times, want exactly once", trial, got)
		}
	}
}

func TestBufferDoneNeverOvertakesDrainedElements(t *testing.T) {
	// The drain/done ordering regression: done arrives while the drainer
	// holds the last element outside the buffer lock. The downstream sink
	// must have received every element before its Done fires.
	for trial := 0; trial < 200; trial++ {
		buf := NewBuffer("b")
		const n = 64
		var received atomic.Int64
		var receivedAtDone int64
		done := make(chan struct{})
		sink := NewFuncSink("sink", 1, func(temporal.Element, int) {
			received.Add(1)
		}, func() {
			receivedAtDone = received.Load()
			close(done)
		})
		if err := buf.Subscribe(sink, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			buf.ProcessBatch(temporal.Batch{temporal.At(i, temporal.Time(i))}, 0)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the drainer (a scheduler worker)
			defer wg.Done()
			for buf.Drain(7) > 0 || !buf.UpstreamDone() {
			}
			buf.Drain(0)
		}()
		go func() { // upstream end-of-stream racing the drain
			defer wg.Done()
			buf.Done(0)
		}()
		wg.Wait()
		<-done
		if receivedAtDone != n {
			t.Fatalf("trial %d: done fired after %d of %d elements", trial, receivedAtDone, n)
		}
	}
}

func TestSliceSourcePolledWhileEmitting(t *testing.T) {
	src := NewSliceSource("src", chronons(make([]int, 500)...))
	ctr := NewCounter("ctr", 1)
	if err := src.Subscribe(ctr, 0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a monitor polling progress concurrently with emission
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if r := src.Remaining(); r < 0 || r > 500 {
					panic("Remaining out of range")
				}
			}
		}
	}()
	Drive(src)
	close(stop)
	wg.Wait()
	if ctr.Count() != 500 {
		t.Fatalf("emitted %d, want 500", ctr.Count())
	}
	if src.Remaining() != 0 {
		t.Fatalf("Remaining = %d after exhaustion", src.Remaining())
	}
}
