package flight_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// fakeClock is a manually advanced telemetry.Clock.
type fakeClock struct{ ns int64 }

func (c *fakeClock) Now() time.Time { return time.Unix(0, c.ns) }

func TestRefInterning(t *testing.T) {
	rec := flight.New(0)
	a := rec.Ref("join")
	if b := rec.Ref("join"); a != b {
		t.Fatal("interning the same name returned distinct handles")
	}
	rec.Ref("src")
	refs := rec.Refs()
	if len(refs) != 2 || refs[0].Name() != "join" || refs[1].Name() != "src" {
		t.Fatalf("Refs() = %v, want [join src] in intern order", refs)
	}
}

func TestRecordEventsOrderedAndStamped(t *testing.T) {
	rec := flight.New(256)
	clk := &fakeClock{ns: 1000}
	rec.SetClock(clk)
	op := rec.Ref("buf")
	for i := 0; i < 5; i++ {
		clk.ns += 100
		op.Drained(10+i, i)
	}
	evs := rec.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if want := int64(1100 + 100*i); ev.WallNS != want {
			t.Errorf("event %d: WallNS = %d, want %d", i, ev.WallNS, want)
		}
		if ev.Kind != flight.KindDrain || ev.Op != "buf" || ev.A != int64(10+i) || ev.B != int64(i) {
			t.Errorf("event %d: decoded %+v", i, ev)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := flight.New(1) // rounds up to the 256 minimum
	op := rec.Ref("b")
	for i := 0; i < 300; i++ {
		op.Drained(1, i)
	}
	evs := rec.Events()
	if len(evs) != 256 {
		t.Fatalf("got %d events, want the full 256-slot ring", len(evs))
	}
	if evs[0].Seq != 45 || evs[len(evs)-1].Seq != 300 {
		t.Fatalf("ring kept seqs %d..%d, want 45..300 (newest win)", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// TestFrameAggregatesAlwaysRingStrided pins the hot-path cost model:
// counters advance on every frame, but the occupancy histogram and the
// ring (and with it the clock) are touched once per 16 frames.
func TestFrameAggregatesAlwaysRingStrided(t *testing.T) {
	rec := flight.New(256)
	op := rec.Ref("src")
	frame := make(temporal.Batch, 48)
	for i := 0; i < 32; i++ {
		op.Out(frame)
	}
	if op.Frames() != 32 || op.Elements() != 32*48 {
		t.Fatalf("frames=%d elements=%d, want 32 and %d", op.Frames(), op.Elements(), 32*48)
	}
	if n := op.OccupancyHistogram().Count(); n != 2 {
		t.Fatalf("occupancy observations = %d, want 2 (1-in-16 stride)", n)
	}
	if n := len(rec.Events()); n != 2 {
		t.Fatalf("ring holds %d frame events, want 2 (1-in-16 stride)", n)
	}
}

func TestEnqueueFullyStrided(t *testing.T) {
	rec := flight.New(256)
	op := rec.Ref("b.in")
	for i := 0; i < 15; i++ {
		op.Enqueue(1, i)
	}
	if n := op.DepthHistogram().Count(); n != 0 {
		t.Fatalf("off-stride enqueues observed depth %d times, want 0", n)
	}
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("off-stride enqueues landed %d ring events, want 0", n)
	}
	op.Enqueue(1, 15) // 16th call: stride hit
	if n := op.DepthHistogram().Count(); n != 1 {
		t.Fatalf("stride hit observed depth %d times, want 1", n)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != flight.KindEnqueue || evs[0].B != 15 {
		t.Fatalf("stride hit recorded %+v, want one enqueue at depth 15", evs)
	}
}

func TestPhaseHistogramsFedByBarrierKinds(t *testing.T) {
	rec := flight.New(256)
	op := rec.Ref("j")
	op.Phase(flight.KindAlignHold, 1, 1000, 0)
	op.Phase(flight.KindSnapshot, 1, 1500, 0)
	op.Phase(flight.KindEncode, 1, 2000, 64)
	op.Phase(flight.KindStoreWrite, 1, 3000, 64)
	op.Phase(flight.KindGateReplay, 1, 5, 0) // not a phase histogram kind
	align, snapshot, encode, write := rec.PhaseHistograms()
	for name, h := range map[string]interface{ Count() uint64 }{
		"align": align, "snapshot": snapshot, "encode": encode, "write": write,
	} {
		if h.Count() != 1 {
			t.Errorf("%s histogram count = %d, want 1", name, h.Count())
		}
	}
}

// TestConcurrentRecordAndScan is the race probe: writers on several
// goroutines against a concurrent Events scan must be clean under -race
// (the seqlock ring is all-atomic) and every decoded event well-formed.
func TestConcurrentRecordAndScan(t *testing.T) {
	rec := flight.New(512)
	var writers sync.WaitGroup
	frame := make(temporal.Batch, 64)
	for g := 0; g < 4; g++ {
		op := rec.Ref("op" + string(rune('0'+g)))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				op.Out(frame)
				op.Enqueue(1, i)
				op.Drained(1, i/2)
			}
		}()
	}
	stop := make(chan struct{})
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range rec.Events() {
				if ev.Seq == 0 || ev.Kind == 0 {
					t.Error("scan surfaced a torn slot")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scanned
}

// TestSampledSurfacesKeepTheirOwnStride is the boundary buffer in scheduler
// lockstep: Enqueue and Out strictly alternate on one block. With one
// shared stride counter Enqueue only ever saw odd counts and its depth
// samples vanished; each sampled surface has its own, so both kinds land.
func TestSampledSurfacesKeepTheirOwnStride(t *testing.T) {
	rec := flight.New(256)
	op := rec.Ref("q.in")
	frame := make(temporal.Batch, 64)
	for i := 0; i < 32; i++ {
		op.Enqueue(64, i)
		op.Out(frame)
	}
	kinds := map[flight.Kind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	if kinds[flight.KindEnqueue] != 2 || kinds[flight.KindFrame] != 2 {
		t.Fatalf("64 alternating calls recorded %d enqueue and %d frame events, want 2 and 2", kinds[flight.KindEnqueue], kinds[flight.KindFrame])
	}
	if n := op.DepthHistogram().Count(); n != 2 {
		t.Fatalf("depth waterline sampled %d times, want 2", n)
	}
}

// TestForgetKeepsEventsDecodable forgets a block that has recorded: it
// leaves Refs, its events still decode under its name and onto its own
// /flight.json track, and interning the name again yields a fresh block.
func TestForgetKeepsEventsDecodable(t *testing.T) {
	rec := flight.New(0)
	op := rec.Ref("join")
	rec.Ref("src")
	rec.Record(op, flight.KindShed, 1, 2, 3)
	rec.Forget("join")
	if refs := rec.Refs(); len(refs) != 1 || refs[0].Name() != "src" {
		t.Fatalf("Refs() = %v after Forget, want [src]", refs)
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0].Op != "join" {
		t.Fatalf("Events() = %+v, want one event on join", evs)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"tid":1,"args":{"name":"join"}`) {
		t.Fatalf("forgotten operator's track is not named in:\n%s", buf.String())
	}
	if rec.Ref("join") == op {
		t.Fatal("Ref after Forget returned the forgotten block")
	}
}
