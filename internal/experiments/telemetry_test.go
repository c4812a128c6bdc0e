package experiments

import (
	"testing"
)

// TestE21InstrumentationIsInert guards the E21 benchmark against the two
// ways it could measure the wrong thing: instrumentation changing the
// computation (output counts must match the bare lane at every mode), and
// the flight attachment silently not firing (the recorder must have seen
// every boundary frame).
func TestE21InstrumentationIsInert(t *testing.T) {
	run := func(mode FlightMode) int64 {
		src := e20Source("traffic", 20_000)
		c, tasks, chain := e21Graph(src)
		if mode != FlightOff {
			rec := newE21Recorder(src, tasks, chain, mode == FlightFull)
			defer func() {
				var frames int64
				for _, ref := range rec.Refs() {
					frames += ref.Frames()
				}
				if frames == 0 {
					t.Errorf("mode %d: flight recorder saw no frames", mode)
				}
			}()
		}
		e20Drive(src, 64, tasks)
		return c.Count()
	}
	want := run(FlightOff)
	if want == 0 {
		t.Fatal("bare lane produced no output")
	}
	for _, mode := range []FlightMode{FlightOn, FlightFull} {
		if got := run(mode); got != want {
			t.Errorf("mode %d produced %d outputs, bare lane %d", mode, got, want)
		}
	}
}
