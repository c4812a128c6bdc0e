package telemetry

import (
	"sync"
	"time"
)

// Clock is the engine's one injectable time source: the flight recorder,
// the per-node instrumentation blocks and the metadata views all read wall
// time through it, so a test that pins it governs every rate, service time
// and flight stamp. Raw time.Now on a frame path is forbidden
// (pipesvet:hotpathclock); a Clock's Now method is the sanctioned read.
type Clock interface {
	Now() time.Time
}

// SystemClock reads the real time.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock returns a fake clock starting at start.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{t: start} }

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}
