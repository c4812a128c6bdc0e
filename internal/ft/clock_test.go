package ft_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// The barrier phases of an operator are recorded on the block it carries:
// a round that snapshots and encodes an operator the recorder has already
// forgotten records both phases under its name without putting the name
// back into Refs (and the scrape).
func TestPhasesAfterForgetStayForgotten(t *testing.T) {
	rec := flight.New(0)
	mgr := ft.NewManager(ft.NewMemStore())
	mgr.SetFlightRecorder(rec)
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", []temporal.Element{el(1, 1, 10), el(2, 2, 10)}))
	win := ops.NewCountWindow("win", 4)
	win.SetFlightRef(rec.Ref("win"))
	sink := ft.NewCheckpointSink("sink")
	if err := src.Subscribe(win, 0); err != nil {
		t.Fatal(err)
	}
	if err := win.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	mgr.RegisterSource(src)
	mgr.RegisterOperator(win, win)
	mgr.RegisterSink(sink)
	mgr.Start(0)
	defer mgr.Stop()
	rec.Forget("win")

	id, err := mgr.Trigger()
	if err != nil {
		t.Fatal(err)
	}
	src.EmitNext()
	waitSealed(t, mgr, id)

	for _, ref := range rec.Refs() {
		if ref.Name() == "win" {
			t.Fatal("a barrier phase put the forgotten operator back into Refs")
		}
	}
	seen := map[flight.Kind]bool{}
	for _, ev := range rec.Events() {
		if ev.Op == "win" {
			seen[ev.Kind] = true
		}
	}
	if !seen[flight.KindSnapshot] || !seen[flight.KindEncode] {
		t.Fatalf("phases on the window's block: %v, want snapshot and encode", seen)
	}
}

// TestRoundTimedOnRecorderClock pins the Manager's one clock: with the
// flight recorder on a frozen fake clock, every phase of a sealed round —
// the per-operator snapshot and encode, the store write and the round as a
// whole — reads zero duration, on the flight ring and in the
// pipes_checkpoint_duration_nanos histogram alike.
func TestRoundTimedOnRecorderClock(t *testing.T) {
	rec := flight.New(0)
	rec.SetClock(telemetry.NewFakeClock(time.Unix(1000, 0)))
	mgr := ft.NewManager(ft.NewMemStore())
	mgr.SetFlightRecorder(rec)
	reg := telemetry.NewRegistry()
	mgr.RegisterMetrics(reg)

	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", []temporal.Element{el(1, 1, 10), el(2, 2, 10)}))
	join := ops.NewEquiJoin("join", func(v any) any { return v }, func(v any) any { return v }, nil)
	join.SetFlightRef(rec.Ref("join")) // the operator's phases land on its own block
	sink := ft.NewCheckpointSink("sink")
	if err := src.Subscribe(join, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe(join, 1); err != nil {
		t.Fatal(err)
	}
	if err := join.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	mgr.RegisterSource(src)
	mgr.RegisterOperator(join, join)
	mgr.RegisterSink(sink)
	mgr.Start(0)
	defer mgr.Stop()

	id, err := mgr.Trigger()
	if err != nil {
		t.Fatal(err)
	}
	src.EmitNext()
	waitSealed(t, mgr, id)

	seen := map[flight.Kind]bool{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case flight.KindSnapshot, flight.KindEncode, flight.KindStoreWrite, flight.KindRoundDone:
			seen[ev.Kind] = true
			if ev.B != 0 {
				t.Errorf("%s of round %d lasted %d ns on a frozen clock", ev.Kind, ev.A, ev.B)
			}
		}
	}
	for _, k := range []flight.Kind{flight.KindSnapshot, flight.KindEncode, flight.KindStoreWrite, flight.KindRoundDone} {
		if !seen[k] {
			t.Errorf("no %s event recorded", k)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	metrics, err := telemetry.ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range metrics {
		if m.Name == "pipes_checkpoint_duration_nanos_sum" {
			found = true
			if m.Value != 0 {
				t.Errorf("pipes_checkpoint_duration_nanos_sum = %v on a frozen clock, want 0", m.Value)
			}
		}
	}
	if !found {
		t.Error("pipes_checkpoint_duration_nanos_sum not exported")
	}
}

// endingClock is a frozen clock that runs onNow once, on the first Now
// call after armed is set.
type endingClock struct {
	telemetry.Clock
	armed atomic.Bool
	onNow func()
}

func (c *endingClock) Now() time.Time {
	if c.armed.CompareAndSwap(true, false) {
		c.onNow()
	}
	return c.Clock.Now()
}

// A source that ends after Trigger starts but before its barrier goes in
// must not have its post-flush state sealed: whether the source has ended
// is decided at the injection itself, so the round finds no live source,
// is retired unsealed, and Trigger reports ErrStreamEnded. The recorder's
// clock ends the stream on the now() call Trigger makes before it
// injects.
func TestTriggerRetiresRoundWhenSourceEndsBeforeInjection(t *testing.T) {
	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", []temporal.Element{el(1, 1, 10), el(2, 2, 10)}))
	win := ops.NewCountWindow("win", 4)
	sink := ft.NewCheckpointSink("sink")
	mustSub(src, win, 0)
	mustSub(win, sink, 0)
	clk := &endingClock{Clock: telemetry.NewFakeClock(time.Unix(1000, 0)), onNow: func() {
		for src.EmitNext() {
		}
	}}
	rec := flight.New(0)
	rec.SetClock(clk)
	store := ft.NewMemStore()
	mgr := ft.NewManager(store)
	mgr.SetFlightRecorder(rec)
	mgr.RegisterSource(src)
	mgr.RegisterOperator(win, win)
	mgr.RegisterSink(sink)
	mgr.Start(0)

	clk.armed.Store(true)
	_, err := mgr.Trigger()
	mgr.Stop()
	if !src.Ended() {
		t.Fatal("the clock did not end the source")
	}
	if !errors.Is(err, ft.ErrStreamEnded) {
		t.Errorf("Trigger = %v, want ErrStreamEnded", err)
	}
	if n := mgr.Completed(); n != 0 {
		t.Fatalf("%d round(s) sealed a snapshot taken after the source ended", n)
	}
	if cp, err := store.LatestComplete(); err != nil || cp != nil {
		t.Fatalf("store holds %+v (err %v), want nothing", cp, err)
	}
}
