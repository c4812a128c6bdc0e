package pubsub_test

import (
	"testing"
	"time"

	"pipes/internal/metadata"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// TestBufferQueueTimeFakeClock drives the queue-time histogram with an
// injected metadata.FakeClock: residence time must be exactly the fake
// advance between enqueue and dequeue, with no real-clock jitter.
func TestBufferQueueTimeFakeClock(t *testing.T) {
	b := pubsub.NewBuffer("buf")
	clk := metadata.NewFakeClock(time.Unix(1000, 0))
	b.SetClock(clk)
	h := telemetry.NewHistogram()
	b.SetQueueTimeHistogram(h)

	sink := pubsub.NewCollector("sink", 1)
	if err := b.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}

	b.ProcessBatch(temporal.Batch{temporal.At(1, 10)}, 0)
	b.ProcessBatch(temporal.Batch{temporal.At(2, 11)}, 0)
	clk.Advance(5 * time.Millisecond)
	if n := b.Drain(0); n != 2 {
		t.Fatalf("Drain = %d, want 2", n)
	}

	if got := h.Count(); got != 2 {
		t.Fatalf("histogram count = %d, want 2", got)
	}
	want := (5 * time.Millisecond).Nanoseconds()
	if got := h.Max(); got != want {
		t.Errorf("max residence = %dns, want %dns", got, want)
	}
	if got := h.Sum(); got != 2*want {
		t.Errorf("sum residence = %dns, want %dns", got, 2*want)
	}
}

// TestBufferSetClockNilRestoresSystem exercises the nil reset path: a
// buffer with the clock cleared still stamps sane (non-negative)
// residence times from the system clock.
func TestBufferSetClockNilRestoresSystem(t *testing.T) {
	b := pubsub.NewBuffer("buf")
	b.SetClock(metadata.NewFakeClock(time.Unix(1000, 0)))
	b.SetClock(nil)
	h := telemetry.NewHistogram()
	b.SetQueueTimeHistogram(h)

	sink := pubsub.NewCollector("sink", 1)
	if err := b.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	b.ProcessBatch(temporal.Batch{temporal.At(1, 10)}, 0)
	b.Drain(0)

	if got := h.Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
	if h.Max() < 0 {
		t.Errorf("negative residence time %dns from system clock", h.Max())
	}
}
